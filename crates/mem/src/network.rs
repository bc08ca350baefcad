//! The on-chip grid interconnect.
//!
//! The paper connects cores and L2 banks with "a packet-switched interconnect
//! … in a grid topology using 64-byte links and adaptive routing". We model
//! the latency side: each node hosts one core and one L2 bank, nodes form a
//! `width × height` mesh, and a message costs `hops × link_latency` with
//! dimension-ordered (Manhattan) hop counting. Contention is not modelled
//! (DESIGN.md, timing model).

use ltse_sim::Cycle;

/// A mesh of nodes, each hosting one core and the same-numbered L2 bank.
///
/// ```
/// use ltse_mem::Grid;
/// use ltse_sim::Cycle;
///
/// let g = Grid::new(4, 4, Cycle(3)); // the paper's 16-node grid
/// assert_eq!(g.hops(0, 0), 0);
/// assert_eq!(g.hops(0, 15), 6);      // (0,0) → (3,3)
/// assert_eq!(g.latency(0, 15), Cycle(18));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    width: usize,
    height: usize,
    link: Cycle,
    /// Node `n`'s `(x, y)` = `(n % width, n / width)`, computed once so a
    /// hop count on the per-access path divides nothing.
    coords: Box<[(u16, u16)]>,
}

impl Grid {
    /// Creates a `width × height` mesh with the given per-link latency.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or larger than 65,536.
    pub fn new(width: usize, height: usize, link: Cycle) -> Self {
        assert!(width > 0 && height > 0, "grid must be nonempty");
        assert!(
            width <= 1 << 16 && height <= 1 << 16,
            "grid dimensions must fit 16-bit coordinates"
        );
        let coords = (0..width * height)
            .map(|node| ((node % width) as u16, (node / width) as u16))
            .collect();
        Grid {
            width,
            height,
            link,
            coords,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Manhattan hop count between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let (ax, ay) = self.coords[a];
        let (bx, by) = self.coords[b];
        (ax.abs_diff(bx) as u64) + (ay.abs_diff(by) as u64)
    }

    /// Latency of one message from node `a` to node `b`.
    pub fn latency(&self, a: usize, b: usize) -> Cycle {
        Cycle(self.hops(a, b) * self.link.as_u64())
    }

    /// Latency of a broadcast from `from` to every other node, modelled as
    /// the worst single destination (fan-out happens in parallel). The
    /// farthest node is always a corner, so this is O(1) — it used to scan
    /// every node, which showed up hot on 256-core directory-loss paths.
    pub fn broadcast_latency(&self, from: usize) -> Cycle {
        let (fx, fy) = self.coords[from];
        let (fx, fy) = (fx as usize, fy as usize);
        let hops = fx.max(self.width - 1 - fx) + fy.max(self.height - 1 - fy);
        Cycle(hops as u64 * self.link.as_u64())
    }

    /// The farthest round trip on the mesh, a useful upper bound in tests.
    pub fn diameter_latency(&self) -> Cycle {
        Cycle(((self.width - 1) + (self.height - 1)) as u64 * self.link.as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_are_manhattan() {
        let g = Grid::new(4, 4, Cycle(3));
        assert_eq!(g.hops(0, 3), 3); // across the top row
        assert_eq!(g.hops(0, 12), 3); // down the left column
        assert_eq!(g.hops(5, 10), 2); // (1,1) → (2,2)
        assert_eq!(g.hops(7, 7), 0);
    }

    #[test]
    fn hops_match_the_division_formula() {
        for (w, h) in [
            (1, 1),
            (2, 2),
            (4, 4),
            (8, 8),
            (12, 12),
            (16, 16),
            (5, 3),
            (1, 7),
            (7, 1),
        ] {
            let g = Grid::new(w, h, Cycle(3));
            for a in 0..g.nodes() {
                for b in 0..g.nodes() {
                    let (ax, ay) = (a % w, a / w);
                    let (bx, by) = (b % w, b / w);
                    let formula = (ax.abs_diff(bx) + ay.abs_diff(by)) as u64;
                    assert_eq!(g.hops(a, b), formula, "{w}x{h}: {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn hops_symmetric() {
        let g = Grid::new(4, 4, Cycle(3));
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(g.hops(a, b), g.hops(b, a));
            }
        }
    }

    #[test]
    fn broadcast_is_worst_case() {
        let g = Grid::new(4, 4, Cycle(3));
        assert_eq!(g.broadcast_latency(0), Cycle(18)); // to node 15
        assert_eq!(g.broadcast_latency(5), Cycle(12)); // center-ish node
    }

    #[test]
    fn broadcast_matches_full_scan() {
        for (w, h) in [(4, 4), (8, 8), (12, 12), (16, 16), (5, 3), (1, 7)] {
            let g = Grid::new(w, h, Cycle(3));
            for from in 0..g.nodes() {
                let scanned = (0..g.nodes())
                    .map(|n| g.latency(from, n))
                    .max()
                    .unwrap();
                assert_eq!(g.broadcast_latency(from), scanned, "{w}x{h} from {from}");
            }
        }
    }

    #[test]
    fn diameter() {
        let g = Grid::new(4, 4, Cycle(3));
        assert_eq!(g.diameter_latency(), Cycle(18));
        let line = Grid::new(8, 1, Cycle(2));
        assert_eq!(line.diameter_latency(), Cycle(14));
    }

    #[test]
    fn single_node_grid() {
        let g = Grid::new(1, 1, Cycle(3));
        assert_eq!(g.latency(0, 0), Cycle::ZERO);
        assert_eq!(g.broadcast_latency(0), Cycle::ZERO);
    }
}
