//! Seeded input generators.
//!
//! Every input of every workload is a pure function of `--seed`: the
//! generators draw from one [`Rng`] per input family, so the same seed
//! produces the same relations, sentences and traffic in every run. Each
//! generator returns the concrete syntax the program sees *and* the model
//! the oracles read (integer hyperplanes, interval pieces, boxes), so no
//! expected answer is ever computed by the program under test.

use crate::oracle::{self, Piece};

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input family: the run seed mixed with a family
    /// tag, so adding a family never shifts another family's draws.
    pub fn new(seed: u64, family: u64) -> Rng {
        let mut r = Rng(seed ^ family.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a over everything a run generates: two runs with equal
/// fingerprints did identical work.
#[derive(Clone, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, text: &str) {
        for b in text.bytes().chain(std::iter::once(0xff)) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Element variable names for ambient dimension `d`.
pub fn vars(d: usize) -> Vec<String> {
    ["x", "y", "z", "w"][..d]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// One hyperplane `a·x = b` with integer coefficients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plane {
    pub a: Vec<i64>,
    pub b: i64,
}

/// Render `a·x` in the concrete syntax (`3*x - 2*y`).
pub fn linear_text(a: &[i64], vars: &[String]) -> String {
    let mut out = String::new();
    for (c, v) in a.iter().zip(vars) {
        if *c == 0 {
            continue;
        }
        let mag = c.abs();
        let term = if mag == 1 {
            v.clone()
        } else {
            format!("{mag}*{v}")
        };
        if out.is_empty() {
            out = if *c < 0 { format!("-{term}") } else { term };
        } else {
            out.push_str(if *c < 0 { " - " } else { " + " });
            out.push_str(&term);
        }
    }
    out
}

/// `n` hyperplanes in `ℝ^d` in general position, integer normals drawn from
/// `-coef..=coef` and offsets from `-off..=off`. Candidates are drawn one at
/// a time and kept only if the set stays in general position, checked with
/// exact integer determinants.
pub fn general_position_planes(
    rng: &mut Rng,
    d: usize,
    n: usize,
    coef: i64,
    off: i64,
) -> Vec<Plane> {
    let mut out: Vec<Plane> = Vec::with_capacity(n);
    while out.len() < n {
        let a: Vec<i64> = (0..d).map(|_| rng.range(-coef, coef)).collect();
        if a.iter().all(|&c| c == 0) {
            continue;
        }
        let cand = Plane {
            a,
            b: rng.range(-off, off),
        };
        out.push(cand);
        if !oracle::in_general_position(&out, d) {
            out.pop();
        }
    }
    out
}

/// A DNF over the given hyperplanes: each hyperplane appears in exactly one
/// atom (with a seeded comparison), atoms are grouped into conjunctions of
/// two. The induced hyperplane set `H(S)` is exactly `planes`.
pub fn dnf_text(rng: &mut Rng, planes: &[Plane], d: usize) -> String {
    let vs = vars(d);
    let mut atoms: Vec<String> = planes
        .iter()
        .map(|p| {
            let op = ["<=", "<", ">=", ">"][rng.range(0, 3) as usize];
            format!("{} {} {}", linear_text(&p.a, &vs), op, p.b)
        })
        .collect();
    rng.shuffle(&mut atoms);
    atoms
        .chunks(2)
        .map(|c| format!("({})", c.join(" and ")))
        .collect::<Vec<_>>()
        .join(" or ")
}

/// Render a union of 1-D pieces as a relation body over `x`.
pub fn pieces_text(pieces: &[Piece]) -> String {
    pieces
        .iter()
        .map(|p| {
            if p.lo == p.hi {
                format!("x = {}", p.lo)
            } else {
                format!(
                    "({} {} x and x {} {})",
                    p.lo,
                    if p.lo_closed { "<=" } else { "<" },
                    if p.hi_closed { "<=" } else { "<" },
                    p.hi
                )
            }
        })
        .map(|s| format!("({s})"))
        .collect::<Vec<_>>()
        .join(" or ")
}

/// `k` intervals that chain end to end: consecutive intervals share an
/// endpoint, and every shared endpoint is covered by at least one side —
/// one component. The outer ends are closed, so the set of points in `S`
/// (and with it the fixed-point work) is the same for every seed.
pub fn chained_intervals(rng: &mut Rng, k: usize) -> Vec<Piece> {
    let mut at = rng.range(-5, 5);
    let mut out: Vec<Piece> = Vec::with_capacity(k);
    for i in 0..k {
        let hi = at + rng.range(1, 3);
        // The left end is closed whenever the previous right end is open,
        // so the shared point stays covered.
        let lo_closed = i == 0 || !out[i - 1].hi_closed || rng.coin();
        let hi_closed = i + 1 == k || rng.coin();
        out.push(Piece {
            lo: at,
            hi,
            lo_closed,
            hi_closed,
        });
        at = hi;
    }
    out
}

/// `k` intervals in a row, broken into `cuts + 1` components of (nearly)
/// equal size. The cuts alternate between a real gap and a shared endpoint
/// left open on both sides, and the outer ends are closed: the seed moves
/// endpoints and closedness where it does not change which points lie in
/// `S`, so every seed gives the same regions and the same fixed-point work.
pub fn gapped_intervals(rng: &mut Rng, k: usize, cuts: usize) -> Vec<Piece> {
    // Interval i belongs to component i·(cuts+1)/k; a junction is cut where
    // that changes.
    let component = |i: usize| i * (cuts + 1) / k;
    let mut at = rng.range(-5, 5);
    let mut out: Vec<Piece> = Vec::with_capacity(k);
    let mut cut = 0;
    for i in 0..k {
        let mut lo_closed = rng.coin();
        if i > 0 && component(i) != component(i - 1) {
            cut += 1;
            if cut % 2 == 0 {
                // Shared endpoint, open on both sides.
                out[i - 1].hi_closed = false;
                lo_closed = false;
            } else {
                // A real gap, closed on both sides.
                out[i - 1].hi_closed = true;
                at += rng.range(1, 2);
                lo_closed = true;
            }
        } else if i > 0 && !out[i - 1].hi_closed {
            lo_closed = true;
        }
        let hi = at + rng.range(1, 3);
        if i == 0 {
            lo_closed = true;
        }
        out.push(Piece {
            lo: at,
            hi,
            lo_closed,
            hi_closed: i + 1 == k || rng.coin(),
        });
        at = hi;
    }
    out
}

/// An axis box `[x0, x1] × [y0, y1]` (closed) with integer corners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Box2 {
    pub x0: i64,
    pub x1: i64,
    pub y0: i64,
    pub y1: i64,
}

/// `k` closed boxes, each starting at the upper-right corner of the last:
/// consecutive boxes touch in exactly one point — one component.
pub fn corner_chain(rng: &mut Rng, k: usize) -> Vec<Box2> {
    let (mut x, mut y) = (rng.range(-3, 3), rng.range(-3, 3));
    (0..k)
        .map(|_| {
            let b = Box2 {
                x0: x,
                x1: x + rng.range(1, 3),
                y0: y,
                y1: y + rng.range(1, 3),
            };
            x = b.x1;
            y = b.y1;
            b
        })
        .collect()
}

pub fn boxes_text(boxes: &[Box2]) -> String {
    boxes
        .iter()
        .map(|b| {
            format!(
                "({} <= x and x <= {} and {} <= y and y <= {})",
                b.x0, b.x1, b.y0, b.y1
            )
        })
        .collect::<Vec<_>>()
        .join(" or ")
}

/// `m` sorted distinct integer points and a union of pieces over them. The
/// first membership bits are `prefix`, the rest seeded. Every point is an
/// endpoint of some atom, so the 0-dimensional regions of the 1-D
/// arrangement are exactly these points, in this order. Returns
/// `(points, pieces)`.
pub fn membership_line(rng: &mut Rng, m: usize, prefix: &[bool]) -> (Vec<i64>, Vec<Piece>) {
    let mut points = Vec::with_capacity(m);
    let mut at = rng.range(-4, 4);
    for _ in 0..m {
        points.push(at);
        at += rng.range(1, 3);
    }
    let bits: Vec<bool> = (0..m)
        .map(|i| prefix.get(i).copied().unwrap_or_else(|| rng.coin()))
        .collect();
    // Every open span between consecutive points is in S, so every point
    // bounds an atom whatever its bit.
    let mut pieces = Vec::new();
    for i in 0..m {
        if bits[i] {
            pieces.push(Piece {
                lo: points[i],
                hi: points[i],
                lo_closed: true,
                hi_closed: true,
            });
        }
        if i + 1 < m {
            pieces.push(Piece {
                lo: points[i],
                hi: points[i + 1],
                lo_closed: false,
                hi_closed: false,
            });
        }
    }
    (points, pieces)
}

/// A convex lattice polygon with exactly `k` vertices (`k ≤ 15`): seeded
/// distinct points on the parabola `y = a·x²`, which are always in convex
/// position, shifted to `(cx, cy)`. Counter-clockwise.
pub fn convex_polygon(rng: &mut Rng, k: usize, cx: i64, cy: i64) -> Vec<(i64, i64)> {
    let mut xs: Vec<i64> = (-7..=7).collect();
    rng.shuffle(&mut xs);
    let a = rng.range(1, 2);
    let mut pts: Vec<(i64, i64)> = xs[..k].iter().map(|&x| (cx + x, cy + a * x * x)).collect();
    oracle::convex_hull(&mut pts)
}

/// The closed polygon as a conjunction of edge half-planes.
pub fn polygon_text(hull: &[(i64, i64)]) -> String {
    let m = hull.len();
    (0..m)
        .map(|i| {
            let (x1, y1) = hull[i];
            let (x2, y2) = hull[(i + 1) % m];
            // Interior on the left of p1 -> p2 (counter-clockwise hull).
            let (a, b) = (y1 - y2, x2 - x1);
            let c = a * x1 + b * y1;
            format!("{} >= {}", linear_text(&[a, b], &vars(2)), c)
        })
        .collect::<Vec<_>>()
        .join(" and ")
}
