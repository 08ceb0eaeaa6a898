//! Independent oracles: every expected answer the benchmark checks comes
//! from here, computed from the generators' models with plain integer
//! arithmetic. Nothing in this module calls the program under test.

use crate::gen::Plane;

/// A 1-D piece: the interval between `lo` and `hi` with the given
/// closedness, or the single point `lo` when `lo == hi` (always closed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    pub lo: i64,
    pub hi: i64,
    pub lo_closed: bool,
    pub hi_closed: bool,
}

/// Binomial coefficient `C(n, k)` (0 when `k > n`).
pub fn binom(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1))
}

/// Face census of an arrangement of `n` hyperplanes in general position in
/// `ℝ^d`: `f_k = C(n, d−k) · Σ_{i≤k} C(n−d+k, i)` for `k = 0..=d`.
pub fn census(n: u64, d: u64) -> Vec<u64> {
    (0..=d)
        .map(|k| binom(n, d - k) * (0..=k).map(|i| binom(n - d + k, i)).sum::<u64>())
        .collect()
}

/// Euler's relation for an arrangement of `ℝ^d`: `Σ (−1)^k f_k = (−1)^d`.
pub fn euler_holds(f: &[u64]) -> bool {
    let d = f.len() as i64 - 1;
    let chi: i64 = f
        .iter()
        .enumerate()
        .map(|(k, &c)| if k % 2 == 0 { c as i64 } else { -(c as i64) })
        .sum();
    chi == if d % 2 == 0 { 1 } else { -1 }
}

/// Exact determinant of a small integer matrix (Bareiss fraction-free
/// elimination; every intermediate division is exact).
pub fn det(mut m: Vec<Vec<i128>>) -> i128 {
    let n = m.len();
    let mut sign = 1i128;
    let mut prev = 1i128;
    for k in 0..n {
        if m[k][k] == 0 {
            let Some(p) = (k + 1..n).find(|&r| m[r][k] != 0) else {
                return 0;
            };
            m.swap(k, p);
            sign = -sign;
        }
        for i in k + 1..n {
            for j in k + 1..n {
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev;
            }
        }
        prev = m[k][k];
    }
    sign * m[n - 1][n - 1]
}

/// Every `size`-subset of `0..n`, in lexicographic order.
fn subsets(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..size).collect();
    if size > n {
        return out;
    }
    loop {
        out.push(idx.clone());
        let Some(i) = (0..size).rev().find(|&i| idx[i] != i + n - size) else {
            return out;
        };
        idx[i] += 1;
        for j in i + 1..size {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// General position in `ℝ^d`: every `d` normals are linearly independent
/// (any `k ≤ d` hyperplanes meet in a `(d−k)`-flat) and no `d + 1`
/// hyperplanes share a point (every `(d+1)×(d+1)` augmented determinant
/// is nonzero).
pub fn in_general_position(planes: &[Plane], d: usize) -> bool {
    let n = planes.len();
    let normals_ok = subsets(n, d.min(n)).iter().all(|s| {
        if s.len() < d {
            // Fewer than d planes: independent iff no two are parallel,
            // checked through any d-subset once enough planes exist.
            return true;
        }
        det(s
            .iter()
            .map(|&i| planes[i].a.iter().map(|&c| c as i128).collect())
            .collect())
            != 0
    });
    let pairs_ok = n >= d
        || subsets(n, 2).iter().all(|s| {
            let (p, q) = (&planes[s[0]].a, &planes[s[1]].a);
            // Not parallel: some 2×2 minor of the pair is nonzero.
            (0..d).any(|i| (i + 1..d).any(|j| p[i] * q[j] != p[j] * q[i]))
        });
    let augmented_ok = subsets(n, d + 1).iter().all(|s| {
        det(s
            .iter()
            .map(|&i| {
                let mut row: Vec<i128> = planes[i].a.iter().map(|&c| c as i128).collect();
                row.push(planes[i].b as i128);
                row
            })
            .collect())
            != 0
    });
    normals_ok && pairs_ok && augmented_ok
}

/// Is the integer point `p` in the union of `pieces`?
pub fn member(pieces: &[Piece], p: i64) -> bool {
    pieces
        .iter()
        .any(|q| (q.lo < p && p < q.hi) || (p == q.lo && q.lo_closed) || (p == q.hi && q.hi_closed))
}

/// Connected components of a union of 1-D pieces.
pub fn components_1d(pieces: &[Piece]) -> usize {
    let mut sorted: Vec<Piece> = pieces.to_vec();
    sorted.sort_by_key(|p| (p.lo, !p.lo_closed));
    let mut count = 0;
    // Right end of the current component and whether it is included.
    let mut reach: Option<(i64, bool)> = None;
    for p in sorted {
        let joins = match reach {
            None => false,
            Some((hi, closed)) => p.lo < hi || (p.lo == hi && (closed || p.lo_closed)),
        };
        if !joins {
            count += 1;
            reach = Some((p.hi, p.hi_closed));
        } else if let Some((hi, closed)) = reach {
            reach = Some(if p.hi > hi {
                (p.hi, p.hi_closed)
            } else if p.hi == hi {
                (hi, closed || p.hi_closed)
            } else {
                (hi, closed)
            });
        }
    }
    count
}

/// Connected components of a union of closed axis boxes (union–find over
/// pairwise intersection; closed boxes touching in a corner intersect).
pub fn components_boxes(boxes: &[crate::gen::Box2]) -> usize {
    let n = boxes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (boxes[i], boxes[j]);
            if a.x0 <= b.x1 && b.x0 <= a.x1 && a.y0 <= b.y1 && b.y0 <= a.y1 {
                let (ri, rj) = (root(&mut parent, i), root(&mut parent, j));
                parent[ri] = rj;
            }
        }
    }
    (0..n).filter(|&i| root(&mut parent, i) == i).count()
}

/// Convex hull of lattice points, counter-clockwise (monotone chain);
/// collinear points are dropped.
pub fn convex_hull(pts: &mut Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    pts.sort();
    pts.dedup();
    if pts.len() < 3 {
        return pts.clone();
    }
    let cross = |o: (i64, i64), a: (i64, i64), b: (i64, i64)| {
        (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0)
    };
    let mut hull: Vec<(i64, i64)> = Vec::new();
    for pass in 0..2 {
        let start = hull.len();
        let iter: Box<dyn Iterator<Item = &(i64, i64)>> = if pass == 0 {
            Box::new(pts.iter())
        } else {
            Box::new(pts.iter().rev())
        };
        for &p in iter {
            while hull.len() >= start + 2
                && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0
            {
                hull.pop();
            }
            hull.push(p);
        }
        hull.pop();
    }
    hull
}

/// The three linear-time machines of the capture family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    Parity,
    AllOnes,
    AnyOne,
}

/// The machine's verdict on the membership word, computed by the
/// benchmark's own pass: the word is one bit per point region in order,
/// with the last cell replaced by the end marker, so the last point's bit
/// is not read.
pub fn tm_verdict(machine: Machine, bits: &[bool]) -> bool {
    let read = &bits[..bits.len().saturating_sub(1)];
    match machine {
        Machine::Parity => read.iter().filter(|&&b| b).count() % 2 == 1,
        Machine::AllOnes => read.iter().all(|&b| b),
        Machine::AnyOne => read.iter().any(|&b| b),
    }
}

/// The ordered river verdict: some chem2 stretch lies at or downstream
/// (towards larger `x`) of some chem1 stretch. Stretches are open
/// intervals `(lo, hi)` with `lo < hi`.
pub fn river_verdict(chem1: &[(i64, i64)], chem2: &[(i64, i64)]) -> bool {
    chem1
        .iter()
        .any(|&(a1, _)| chem2.iter().any(|&(_, b2)| b2 > a1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Box2, Rng};

    fn plane(a: &[i64], b: i64) -> Plane {
        Plane { a: a.to_vec(), b }
    }

    fn piece(lo: i64, hi: i64, lo_closed: bool, hi_closed: bool) -> Piece {
        Piece {
            lo,
            hi,
            lo_closed,
            hi_closed,
        }
    }

    #[test]
    fn census_matches_hand_counts() {
        // Fig. 3: three lines in general position — 3 vertices, 9 edges,
        // 7 cells.
        assert_eq!(census(3, 2), vec![3, 9, 7]);
        assert_eq!(census(10, 2), vec![45, 100, 56]);
        assert_eq!(census(6, 3), vec![20, 75, 96, 42]);
        // n points on a line: n vertices, n + 1 segments.
        assert_eq!(census(4, 1), vec![4, 5]);
        // One plane in space: a plane and two half-spaces.
        assert_eq!(census(1, 3), vec![0, 0, 1, 2]);
    }

    #[test]
    fn euler_relation() {
        for (n, d) in [(3, 2), (10, 2), (6, 3), (7, 3), (5, 1), (1, 3)] {
            assert!(euler_holds(&census(n, d)), "n={n} d={d}");
        }
        assert!(!euler_holds(&[3, 9, 8]));
        assert!(!euler_holds(&[20, 75, 96, 41]));
    }

    #[test]
    fn exact_determinants() {
        assert_eq!(det(vec![vec![2]]), 2);
        assert_eq!(det(vec![vec![1, 2], vec![3, 4]]), -2);
        assert_eq!(det(vec![vec![0, 1], vec![1, 0]]), -1);
        assert_eq!(
            det(vec![vec![2, -1, 0], vec![-1, 2, -1], vec![0, -1, 2]]),
            4
        );
        assert_eq!(det(vec![vec![1, 2, 3], vec![2, 4, 6], vec![1, 0, 1]]), 0);
        let m = vec![
            vec![3, 1, 4, 1],
            vec![5, 9, 2, 6],
            vec![5, 3, 5, 8],
            vec![9, 7, 9, 3],
        ];
        assert_eq!(det(m), 98);
    }

    #[test]
    fn general_position_check() {
        // x = 0, y = 0, x + y = 1: the Fig. 1 lines.
        let fig1 = [plane(&[1, 0], 0), plane(&[0, 1], 0), plane(&[1, 1], 1)];
        assert!(in_general_position(&fig1, 2));
        // Parallel lines.
        assert!(!in_general_position(
            &[plane(&[1, 1], 0), plane(&[2, 2], 3), plane(&[1, 0], 0)],
            2
        ));
        // Three lines through the origin.
        assert!(!in_general_position(
            &[plane(&[1, 0], 0), plane(&[0, 1], 0), plane(&[1, 1], 0)],
            2
        ));
        // Two parallel planes in space are caught with only two planes.
        assert!(!in_general_position(
            &[plane(&[1, 2, 3], 0), plane(&[2, 4, 6], 1)],
            3
        ));
        // Coordinate planes plus x + y + z = 1.
        let cube = [
            plane(&[1, 0, 0], 0),
            plane(&[0, 1, 0], 0),
            plane(&[0, 0, 1], 0),
            plane(&[1, 1, 1], 1),
        ];
        assert!(in_general_position(&cube, 3));
        // Duplicate points on a line.
        assert!(!in_general_position(&[plane(&[2], 4), plane(&[1], 2)], 1));
    }

    #[test]
    fn generated_planes_are_in_general_position() {
        for seed in 0..5 {
            let ps = gen::general_position_planes(&mut Rng::new(seed, 1), 3, 6, 4, 8);
            assert_eq!(ps.len(), 6);
            assert!(in_general_position(&ps, 3));
        }
    }

    #[test]
    fn interval_components() {
        // (0,1) ∪ (2,3): two components.
        assert_eq!(
            components_1d(&[piece(0, 1, false, false), piece(2, 3, false, false)]),
            2
        );
        // [0,1] ∪ [1,2]: touching closed — one.
        assert_eq!(
            components_1d(&[piece(0, 1, true, true), piece(1, 2, true, true)]),
            1
        );
        // (0,1) ∪ (1,2): the shared point is missing — two.
        assert_eq!(
            components_1d(&[piece(0, 1, false, false), piece(1, 2, false, false)]),
            2
        );
        // (0,1) ∪ [1,2]: one.
        assert_eq!(
            components_1d(&[piece(0, 1, false, false), piece(1, 2, true, false)]),
            1
        );
        // (0,1) ∪ {1} ∪ (1,2): the point bridges — one.
        assert_eq!(
            components_1d(&[
                piece(0, 1, false, false),
                piece(1, 1, true, true),
                piece(1, 2, false, false)
            ]),
            1
        );
        // Nested: (0,5) ∪ [1,2] ∪ (5,6): the point 5 is missing — two.
        assert_eq!(
            components_1d(&[
                piece(0, 5, false, false),
                piece(1, 2, true, true),
                piece(5, 6, false, false)
            ]),
            2
        );
    }

    #[test]
    fn generated_interval_components() {
        for seed in 0..20 {
            let chained = gen::chained_intervals(&mut Rng::new(seed, 2), 8);
            assert_eq!(components_1d(&chained), 1, "seed {seed}");
            let gapped = gen::gapped_intervals(&mut Rng::new(seed, 3), 8, 3);
            assert_eq!(components_1d(&gapped), 4, "seed {seed}");
        }
    }

    #[test]
    fn box_components() {
        let b = |x0, x1, y0, y1| Box2 { x0, x1, y0, y1 };
        // Corner-touching boxes: one component (E6's case).
        assert_eq!(components_boxes(&[b(0, 1, 0, 1), b(1, 2, 1, 2)]), 1);
        assert_eq!(components_boxes(&[b(0, 1, 0, 1), b(2, 3, 0, 1)]), 2);
        let chain = gen::corner_chain(&mut Rng::new(7, 4), 5);
        assert_eq!(components_boxes(&chain), 1);
    }

    #[test]
    fn machine_verdicts() {
        // E10's first database: points 0,1,3,5,6,8,10 with bits 1,0,1,0,0,1,(1).
        let bits = [true, false, true, false, false, true, true];
        assert!(tm_verdict(Machine::Parity, &bits)); // three ones read
        assert!(!tm_verdict(Machine::AllOnes, &bits));
        assert!(tm_verdict(Machine::AnyOne, &bits));
        // Only the unread last cell is set.
        let last_only = [false, false, false, true];
        assert!(!tm_verdict(Machine::AnyOne, &last_only));
        assert!(!tm_verdict(Machine::Parity, &last_only));
        assert!(tm_verdict(Machine::AllOnes, &[true, true, false]));
    }

    #[test]
    fn membership_word() {
        let (points, pieces) = gen::membership_line(&mut Rng::new(3, 5), 9, &[true, false]);
        assert_eq!(points.len(), 9);
        assert!(member(&pieces, points[0]) && !member(&pieces, points[1]));
        // Every point bounds some atom.
        for p in &points {
            assert!(pieces.iter().any(|q| q.lo == *p || q.hi == *p));
        }
        let pieces = [
            piece(0, 1, true, false),
            piece(3, 3, true, true),
            piece(5, 6, false, false),
        ];
        let word: Vec<bool> = [0, 1, 3, 5, 6]
            .iter()
            .map(|&p| member(&pieces, p))
            .collect();
        assert_eq!(word, vec![true, false, true, false, false]);
    }

    #[test]
    fn river() {
        assert!(river_verdict(&[(1, 2)], &[(4, 5)]));
        assert!(!river_verdict(&[(4, 5)], &[(1, 2)]));
        assert!(river_verdict(&[(1, 4)], &[(2, 3)]));
    }

    #[test]
    fn polygons_keep_every_vertex() {
        for seed in 0..10 {
            assert_eq!(
                gen::convex_polygon(&mut Rng::new(seed, 6), 12, 0, 0).len(),
                12
            );
        }
    }

    #[test]
    fn hull() {
        let mut pts = vec![(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 0)];
        assert_eq!(convex_hull(&mut pts), vec![(0, 0), (2, 0), (2, 2), (0, 2)]);
    }
}
