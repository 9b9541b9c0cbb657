//! The workload catalog and per-workload model constants.

use mixtlb_types::PAGE_SIZE_4K;

/// Which of the paper's workload groups a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Spec CPU + PARSEC, inputs scaled to 80 GB (paper Sec. 6.4).
    SpecParsec,
    /// Big-memory server workloads (gups, graph processing, memcached,
    /// Cloudsuite), 80 GB.
    BigMemory,
    /// Rodinia GPU kernels, 24 GB.
    Gpu,
}

/// The memory access-pattern class a generator reproduces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Pointer chasing with tunable locality: with probability `locality`
    /// the next access lands near the current one, otherwise it jumps to a
    /// random location (mcf, omnetpp).
    PointerChase {
        /// Probability of a near jump.
        locality: f64,
    },
    /// Uniform random updates over the whole footprint (gups, canneal).
    UniformRandom,
    /// Zipf-distributed key lookups (memcached, redis, xalancbmk).
    Zipf {
        /// Skew parameter; larger = hotter hot set. Must be > 0, ≠ 1.
        theta: f64,
    },
    /// Sequential streaming with a fixed byte stride (streamcluster,
    /// pathfinder).
    Streaming {
        /// Byte stride between accesses.
        stride: u64,
    },
    /// Graph traversal: short sequential adjacency bursts punctuated by
    /// random jumps to neighbour vertices (graph500, Rodinia bfs).
    GraphTraversal {
        /// Average sequential burst length (edges per vertex).
        avg_degree: u32,
    },
    /// Row-sweep stencil: a sequential sweep reading the previous row in
    /// step (hotspot, lud, needle, cactusADM).
    Stencil {
        /// Row length in bytes.
        row_bytes: u64,
    },
    /// GPU-coalesced grid-stride streams: the machine's resident CTAs
    /// sweep a group of *adjacent* 2 MB tiles in lockstep, then jump
    /// forward one tile group (backprop, kmeans, srad). The concurrent
    /// working set is `streams` adjacent superpages — more than a split
    /// design's superpage TLB holds, and exactly what coalescing covers.
    CoalescedStreams {
        /// Number of concurrent stream cursors (tiles per group).
        streams: u32,
    },
    /// Analytics mix: long scans interleaved with Zipf point lookups
    /// (Cloudsuite data analytics).
    ScanPoint {
        /// Fraction of accesses that belong to the scan.
        scan_fraction: f64,
    },
    /// Repeated sequential sweeps over a fixed window (a hot buffer
    /// re-traversed each iteration, e.g. cluster centres, blocked matrix
    /// tiles). The working set is `window_bytes` of *adjacent* pages —
    /// the pattern that separates small-page from superpage index bits
    /// (paper Sec. 3's experiment).
    LoopedStream {
        /// Window size in bytes.
        window_bytes: u64,
        /// Byte stride within the window.
        stride: u64,
    },
}

/// A workload: its name, class, footprint, access pattern, and the
/// analytical-model constants that weight translation stalls into runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (matches the paper where applicable).
    pub name: &'static str,
    /// Workload group.
    pub class: WorkloadClass,
    /// Memory footprint in bytes.
    pub footprint_bytes: u64,
    /// The access pattern class.
    pub pattern: AccessPattern,
    /// Cycles per instruction with ideal address translation — including
    /// the workload's own data-cache stalls (memory-bound workloads like
    /// gups run at high base CPI on real hardware), which is what the
    /// paper's performance-counter weighting captures.
    pub base_cpi: f64,
    /// Memory operations per instruction (loads + stores).
    pub mem_ops_per_instr: f64,
    /// Fraction of memory operations that are stores.
    pub store_fraction: f64,
}

const GB: u64 = 1 << 30;

impl WorkloadSpec {
    /// The full catalog: every workload the benchmarks sweep.
    pub fn catalog() -> Vec<WorkloadSpec> {
        use AccessPattern::*;
        use WorkloadClass::*;
        let w = |name, class, gb, pattern, base_cpi, mem_ops, stores| WorkloadSpec {
            name,
            class,
            footprint_bytes: gb * GB,
            pattern,
            base_cpi,
            mem_ops_per_instr: mem_ops,
            store_fraction: stores,
        };
        vec![
            // Spec + PARSEC (scaled to 80 GB per the paper).
            w("mcf", SpecParsec, 80, PointerChase { locality: 0.6 }, 3.5, 0.35, 0.12),
            w("omnetpp", SpecParsec, 80, PointerChase { locality: 0.75 }, 2.2, 0.33, 0.20),
            w("xalancbmk", SpecParsec, 80, Zipf { theta: 0.8 }, 1.6, 0.32, 0.15),
            w("cactusADM", SpecParsec, 80, Stencil { row_bytes: 1 << 22 }, 1.4, 0.40, 0.30),
            w("canneal", SpecParsec, 80, UniformRandom, 3.2, 0.30, 0.10),
            w("streamcluster", SpecParsec, 80, Streaming { stride: 64 }, 1.2, 0.38, 0.05),
            w("dedup", SpecParsec, 80, Zipf { theta: 0.7 }, 1.6, 0.28, 0.25),
            w("ferret", SpecParsec, 80, ScanPoint { scan_fraction: 0.5 }, 1.8, 0.30, 0.10),
            // Big-memory server workloads.
            w("gups", BigMemory, 80, UniformRandom, 8.0, 0.45, 0.50),
            w("graph500", BigMemory, 80, GraphTraversal { avg_degree: 16 }, 3.5, 0.40, 0.08),
            w("memcached", BigMemory, 80, Zipf { theta: 0.99 }, 2.8, 0.35, 0.10),
            w("redis", BigMemory, 80, Zipf { theta: 0.8 }, 2.6, 0.35, 0.15),
            w("cs-analytics", BigMemory, 80, ScanPoint { scan_fraction: 0.7 }, 2.0, 0.36, 0.08),
            w("cs-graph", BigMemory, 80, GraphTraversal { avg_degree: 24 }, 3.2, 0.38, 0.06),
            // Rodinia GPU kernels (24 GB per the paper's Sec. 6.4).
            w("bfs", Gpu, 24, GraphTraversal { avg_degree: 8 }, 3.5, 0.30, 0.10),
            w("backprop", Gpu, 24, CoalescedStreams { streams: 48 }, 2.0, 0.35, 0.30),
            w("hotspot", Gpu, 24, Stencil { row_bytes: 1 << 21 }, 1.8, 0.33, 0.33),
            w("kmeans", Gpu, 24, CoalescedStreams { streams: 64 }, 2.2, 0.40, 0.10),
            w("lud", Gpu, 24, Stencil { row_bytes: 1 << 20 }, 2.0, 0.36, 0.25),
            w("needle", Gpu, 24, Stencil { row_bytes: 1 << 21 }, 2.1, 0.34, 0.25),
            w("pathfinder", Gpu, 24, Streaming { stride: 128 }, 1.5, 0.38, 0.15),
            w("srad", Gpu, 24, CoalescedStreams { streams: 48 }, 1.9, 0.37, 0.30),
        ]
    }

    /// Every workload of a class.
    pub fn of_class(class: WorkloadClass) -> Vec<WorkloadSpec> {
        Self::catalog()
            .into_iter()
            .filter(|w| w.class == class)
            .collect()
    }

    /// Looks up a workload by name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        Self::catalog().into_iter().find(|w| w.name == name)
    }

    /// The same workload with a scaled footprint (simulation tractability;
    /// the pattern is footprint-relative), rounded down to whole 4 KB
    /// pages: the OS maps [`WorkloadSpec::footprint_pages`] and the
    /// generator draws over every footprint byte, so a partial last page
    /// would be touched but never mapped.
    pub fn with_footprint(mut self, bytes: u64) -> WorkloadSpec {
        assert!(bytes >= PAGE_SIZE_4K, "footprint below one page");
        self.footprint_bytes = bytes / PAGE_SIZE_4K * PAGE_SIZE_4K;
        self
    }

    /// Footprint in 4 KB pages.
    pub fn footprint_pages(&self) -> u64 {
        self.footprint_bytes / PAGE_SIZE_4K
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_classes() {
        assert_eq!(WorkloadSpec::of_class(WorkloadClass::SpecParsec).len(), 8);
        assert_eq!(WorkloadSpec::of_class(WorkloadClass::BigMemory).len(), 6);
        assert_eq!(WorkloadSpec::of_class(WorkloadClass::Gpu).len(), 8);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = WorkloadSpec::catalog().iter().map(|w| w.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn paper_footprints() {
        assert_eq!(
            WorkloadSpec::by_name("gups").unwrap().footprint_bytes,
            80 * GB
        );
        assert_eq!(WorkloadSpec::by_name("bfs").unwrap().footprint_bytes, 24 * GB);
    }

    #[test]
    fn footprint_scaling() {
        let w = WorkloadSpec::by_name("mcf").unwrap().with_footprint(1 << 30);
        assert_eq!(w.footprint_pages(), 262_144);
        let partial = w.with_footprint((1 << 30) + 3276);
        assert_eq!(partial.footprint_bytes, 1 << 30, "whole pages only");
    }

    #[test]
    fn constants_are_sane() {
        for w in WorkloadSpec::catalog() {
            assert!(w.base_cpi > 0.0, "{}", w.name);
            assert!(w.mem_ops_per_instr > 0.0 && w.mem_ops_per_instr < 1.0, "{}", w.name);
            assert!((0.0..=1.0).contains(&w.store_fraction), "{}", w.name);
        }
    }
}
