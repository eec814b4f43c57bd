//! The OST service model: turning request shapes into virtual time.
//!
//! Every file access produces a [`ServiceReport`] — per-server byte and
//! request tallies. Timing is a *pure function* of reports: a server
//! needs `requests × request_overhead + bytes / server_bandwidth`, a
//! phase needs the max over servers (they work in parallel), plus the
//! client-side cap for whoever moved the most data. Pricing whole phases
//! from summed reports (rather than advancing per-server clocks as
//! requests race in) keeps virtual time independent of rank schedules.
//!
//! This is where collective I/O's advantage lives: many small
//! noncontiguous requests pay `request_overhead` over and over, while the
//! same bytes as one large stripe-aligned request per server pay it once.

use mccio_sim::time::VDuration;

/// Storage-side cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct PfsParams {
    /// Fixed cost per request at a server (RPC handling + seek), seconds.
    /// 0.5 ms matches disk-era Lustre OSTs.
    pub request_overhead: f64,
    /// Streaming bandwidth of one server, bytes/second.
    pub server_bandwidth: f64,
    /// Cap on one client's data path to storage, bytes/second (the
    /// client NIC / LNET limit).
    pub client_bandwidth: f64,
    /// Base latency for reaching storage at all, seconds.
    pub access_latency: f64,
    /// Multiplier on server time for writes (commit/replication costs
    /// make PFS writes slower than reads; the paper's read bandwidths
    /// exceed its write bandwidths throughout).
    pub write_factor: f64,
}

impl Default for PfsParams {
    fn default() -> Self {
        PfsParams {
            request_overhead: 0.3e-3,
            server_bandwidth: 1200.0 * 1024.0 * 1024.0, // 1.2 GiB/s per OST
            // One client process's LNET/RPC pipe; a node needs several
            // aggregators to saturate its NIC and the storage fabric.
            client_bandwidth: 400.0 * 1024.0 * 1024.0, // 400 MiB/s
            access_latency: 50.0e-6,
            write_factor: 1.3,
        }
    }
}

/// Work done at one server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerLoad {
    /// Bytes transferred.
    pub bytes: u64,
    /// Number of requests.
    pub requests: u64,
}

/// Per-server tallies for one access or one whole phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    per_server: Vec<ServerLoad>,
}

impl ServiceReport {
    /// An empty report over `n_servers`.
    #[must_use]
    pub fn empty(n_servers: usize) -> Self {
        ServiceReport {
            per_server: vec![ServerLoad::default(); n_servers],
        }
    }

    /// Number of servers the report covers.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.per_server.len()
    }

    /// Records one request of `bytes` at `server`.
    pub fn add_request(&mut self, server: usize, bytes: u64) {
        let load = &mut self.per_server[server];
        load.bytes += bytes;
        load.requests += 1;
    }

    /// Adds a whole load (bytes and requests) at `server`.
    pub fn add_load(&mut self, server: usize, load: ServerLoad) {
        let a = &mut self.per_server[server];
        a.bytes += load.bytes;
        a.requests += load.requests;
    }

    /// Merges another report into this one (same server count).
    ///
    /// # Panics
    /// Panics if the server counts differ.
    pub fn merge(&mut self, other: &ServiceReport) {
        assert_eq!(
            self.per_server.len(),
            other.per_server.len(),
            "merging reports over different server counts"
        );
        for (server, &load) in other.per_server.iter().enumerate() {
            self.add_load(server, load);
        }
    }

    /// Total bytes across servers.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.per_server.iter().map(|l| l.bytes).sum()
    }

    /// Total requests across servers.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.per_server.iter().map(|l| l.requests).sum()
    }

    /// Per-server loads.
    #[must_use]
    pub fn loads(&self) -> &[ServerLoad] {
        &self.per_server
    }
}

impl PfsParams {
    /// Service time for one server's load.
    #[must_use]
    pub fn server_time(&self, load: ServerLoad) -> VDuration {
        if load.requests == 0 && load.bytes == 0 {
            return VDuration::ZERO;
        }
        VDuration::from_secs(load.requests as f64 * self.request_overhead)
            + VDuration::transfer(load.bytes, self.server_bandwidth)
    }

    /// Duration of a storage phase given the summed report of every
    /// client participating in it and the largest volume any single
    /// client moved (`max_client_bytes`, for the client-side cap).
    ///
    /// Servers proceed in parallel, so the phase lasts as long as the
    /// busiest server — or as long as the busiest client's own pipe
    /// needs, whichever is greater — plus the base access latency.
    /// Writes stretch server time by [`PfsParams::write_factor`], and the
    /// whole phase can move no faster than the `n_clients` participating
    /// client pipes allow in aggregate — the term that makes the *number
    /// of aggregators* matter, exactly the paper's motivation for tuning
    /// `N_ah` aggregators per node.
    ///
    /// `slowdown` stretches each server's service time by its multiplier
    /// (1.0 = healthy; a server past the slice's end, so every server of
    /// an empty slice, is healthy). A single degraded OST drags the whole
    /// phase because the phase waits for the slowest server — exactly the
    /// straggling-server pathology of real parallel file systems.
    #[must_use]
    pub fn phase_time(
        &self,
        report: &ServiceReport,
        max_client_bytes: u64,
        is_write: bool,
        n_clients: usize,
        slowdown: &[f64],
    ) -> VDuration {
        if report.total_requests() == 0 {
            return VDuration::ZERO;
        }
        let dir = if is_write {
            self.write_factor.max(1.0)
        } else {
            1.0
        };
        let server_term = report
            .loads()
            .iter()
            .enumerate()
            .map(|(srv, &l)| {
                let health = slowdown.get(srv).copied().unwrap_or(1.0).max(1.0);
                self.server_time(l) * (dir * health)
            })
            .fold(VDuration::ZERO, VDuration::max);
        let client_term = VDuration::transfer(max_client_bytes, self.client_bandwidth);
        let aggregate_term = VDuration::transfer(
            report.total_bytes(),
            self.client_bandwidth * n_clients.max(1) as f64,
        );
        VDuration::from_secs(self.access_latency) + server_term.max(client_term).max(aggregate_term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::units::MIB;

    fn params() -> PfsParams {
        PfsParams {
            request_overhead: 1e-3,
            server_bandwidth: 100.0 * MIB as f64,
            client_bandwidth: 1000.0 * MIB as f64,
            access_latency: 0.0,
            write_factor: 1.0,
        }
    }

    #[test]
    fn report_accumulates_and_merges() {
        let mut a = ServiceReport::empty(3);
        a.add_request(0, 100);
        a.add_request(0, 50);
        a.add_request(2, 10);
        let mut b = ServiceReport::empty(3);
        b.add_request(1, 5);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 165);
        assert_eq!(a.total_requests(), 4);
        assert_eq!(
            a.loads()[0],
            ServerLoad {
                bytes: 150,
                requests: 2
            }
        );
        assert_eq!(
            a.loads()[1],
            ServerLoad {
                bytes: 5,
                requests: 1
            }
        );
    }

    #[test]
    fn one_big_request_beats_many_small() {
        let p = params();
        let mut big = ServiceReport::empty(1);
        big.add_request(0, 100 * MIB);
        let mut small = ServiceReport::empty(1);
        for _ in 0..1000 {
            small.add_request(0, 100 * MIB / 1000);
        }
        let t_big = p.phase_time(&big, 100 * MIB, false, 1, &[]);
        let t_small = p.phase_time(&small, 100 * MIB, false, 1, &[]);
        // Same bytes; small pays 1000 × 1 ms of overhead ≈ +1 s.
        assert!(t_small.as_secs() - t_big.as_secs() > 0.9);
    }

    #[test]
    fn servers_work_in_parallel() {
        let p = params();
        let mut spread = ServiceReport::empty(4);
        for s in 0..4 {
            spread.add_request(s, 25 * MIB);
        }
        let mut single = ServiceReport::empty(4);
        single.add_request(0, 100 * MIB);
        let t_spread = p.phase_time(&spread, 100 * MIB, false, 1, &[]);
        let t_single = p.phase_time(&single, 100 * MIB, false, 1, &[]);
        assert!(
            t_spread.as_secs() < t_single.as_secs() / 3.0,
            "{t_spread:?} vs {t_single:?}"
        );
    }

    #[test]
    fn client_pipe_caps_a_fast_stripe() {
        let mut p = params();
        p.client_bandwidth = 10.0 * MIB as f64; // slow client
        let mut r = ServiceReport::empty(8);
        for s in 0..8 {
            r.add_request(s, 10 * MIB);
        }
        // Servers need 0.1 s each in parallel; the client needs
        // 80 MiB / 10 MiB/s = 8 s.
        let t = p.phase_time(&r, 80 * MIB, false, 1, &[]);
        assert!((t.as_secs() - 8.0).abs() < 0.1, "{t:?}");
    }

    #[test]
    fn writes_are_slower_than_reads() {
        let mut p = params();
        p.write_factor = 1.5;
        let mut r = ServiceReport::empty(2);
        r.add_request(0, 50 * MIB);
        let read = p.phase_time(&r, 50 * MIB, false, 1, &[]);
        let write = p.phase_time(&r, 50 * MIB, true, 1, &[]);
        assert!((write.as_secs() / read.as_secs() - 1.5).abs() < 0.05);
    }

    #[test]
    fn empty_phase_is_free() {
        let p = params();
        let r = ServiceReport::empty(4);
        assert_eq!(p.phase_time(&r, 0, false, 1, &[]), VDuration::ZERO);
    }

    #[test]
    fn one_slow_server_drags_the_whole_phase() {
        let p = params();
        let mut r = ServiceReport::empty(4);
        for s in 0..4 {
            r.add_request(s, 25 * MIB);
        }
        let healthy = p.phase_time(&r, 25 * MIB, false, 4, &[]);
        let degraded = p.phase_time(&r, 25 * MIB, false, 4, &[1.0, 1.0, 3.0, 1.0]);
        assert!(
            (degraded.as_secs() / healthy.as_secs() - 3.0).abs() < 0.05,
            "{degraded:?} vs {healthy:?}"
        );
        // Sub-unity factors are treated as healthy, never a speedup.
        let silly = p.phase_time(&r, 25 * MIB, false, 4, &[0.1; 4]);
        assert_eq!(silly, healthy);
    }

    #[test]
    #[should_panic(expected = "different server counts")]
    fn mismatched_merge_is_a_bug() {
        let mut a = ServiceReport::empty(2);
        let b = ServiceReport::empty(3);
        a.merge(&b);
    }
}
