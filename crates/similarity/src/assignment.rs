//! Maximum-weight 1:1 assignment (Hungarian algorithm).
//!
//! The Generalized Jaccard Coefficient and the paper's name matcher
//! (Section 6.5: "we matched every combination of them and used the 1:1
//! matching with the highest similarity") need an exact maximum-weight
//! bipartite matching, not a greedy one.
//!
//! Every matrix runs the `O(n³)` Hungarian algorithm except the small
//! ones the paper's matcher spends its time on: with at most three rows
//! and three columns there are at most six injective assignments, so
//! `assign_core` totals each of them and takes the best when it beats
//! the runner-up by a margin far above the Hungarian's rounding error
//! (`certified_small`). There the Hungarian could only have found the
//! same assignment, and its total is summed in the Hungarian's order,
//! so both the pairs and the total's bits are the Hungarian's. Ties and
//! near-ties, where the Hungarian's tie-breaking decides the pairs, run
//! the Hungarian itself.

/// Result of a maximum-weight assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `pairs[k] = (i, j)` assigns row `i` to column `j`.
    pub pairs: Vec<(usize, usize)>,
    /// Sum of `weights[i][j]` over all assigned pairs.
    pub total: f64,
}

/// Reusable working set for the Hungarian algorithm: potentials,
/// matching state and the output pair list. Owned by
/// [`crate::scratch::Scratch`] so repeated assignments allocate
/// nothing after warm-up. Matrices of at most 8 rows and 8 columns
/// run on stack arrays instead and use only the pair list.
#[derive(Debug, Default)]
pub struct AssignScratch {
    u: Vec<f64>,
    v: Vec<f64>,
    matched_col: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    /// Assigned `(row, col)` pairs of the most recent run, sorted.
    pub(crate) pairs: Vec<(usize, usize)>,
}

impl AssignScratch {
    /// The `(row, col)` pairs assigned by the most recent run, sorted
    /// by row.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }
}

/// The widest matrix whose working set lives on the stack. The paper's
/// name group is 3 × 3 and person names have at most four tokens.
const STACK_COLS: usize = 8;

/// One run's working arrays, `cols + 1` entries each (1-indexed, as in
/// the classic formulation; `u` only needs `rows + 1`).
struct Work<'a> {
    u: &'a mut [f64],
    v: &'a mut [f64],
    matched_col: &'a mut [usize],
    way: &'a mut [usize],
    minv: &'a mut [f64],
    used: &'a mut [bool],
}

/// Maximum-weight assignment of a flat row-major `n × m` matrix of
/// finite, non-negative weights: [`certified_small`] where it is
/// certain, else the Hungarian algorithm. Fills `scratch.pairs` (sorted
/// by row) and returns the total assigned weight; produces exactly the
/// pairs [`max_weight_assignment`] would.
pub(crate) fn assign_core(scratch: &mut AssignScratch, weights: &[f64], n: usize, m: usize) -> f64 {
    scratch.pairs.clear();
    if n == 0 || m == 0 {
        return 0.0;
    }
    if n.max(m) <= ENUM_SIDE {
        if let Some(total) = certified_small(weights, n, m, &mut scratch.pairs) {
            return total;
        }
    }
    let len = n.max(m) + 1;
    if n.max(m) <= STACK_COLS {
        let (mut u, mut v, mut minv) = (
            [0.0; STACK_COLS + 1],
            [0.0; STACK_COLS + 1],
            [0.0; STACK_COLS + 1],
        );
        let (mut matched_col, mut way) = ([0; STACK_COLS + 1], [0; STACK_COLS + 1]);
        let mut used = [false; STACK_COLS + 1];
        let work = Work {
            u: &mut u[..len],
            v: &mut v[..len],
            matched_col: &mut matched_col[..len],
            way: &mut way[..len],
            minv: &mut minv[..len],
            used: &mut used[..len],
        };
        hungarian(work, weights, n, m, &mut scratch.pairs)
    } else {
        scratch.u.resize(len, 0.0);
        scratch.v.resize(len, 0.0);
        scratch.matched_col.resize(len, 0);
        scratch.way.resize(len, 0);
        scratch.minv.resize(len, 0.0);
        scratch.used.resize(len, false);
        let work = Work {
            u: &mut scratch.u[..len],
            v: &mut scratch.v[..len],
            matched_col: &mut scratch.matched_col[..len],
            way: &mut scratch.way[..len],
            minv: &mut scratch.minv[..len],
            used: &mut scratch.used[..len],
        };
        hungarian(work, weights, n, m, &mut scratch.pairs)
    }
}

/// The widest matrix side [`certified_small`] enumerates.
const ENUM_SIDE: usize = 3;

/// Marks a long-side index no short-side index is assigned to.
const FREE: u8 = u8::MAX;

/// Every injective assignment of a short side of `k` indices into a
/// long side of `l ≥ k` (`l ≤ 3`), each as its inverse: entry `t` is the
/// short index assigned to long index `t`, or [`FREE`].
fn injections(k: usize, l: usize) -> &'static [[u8; ENUM_SIDE]] {
    const F: u8 = FREE;
    match (k, l) {
        (1, 1) => &[[0, F, F]],
        (1, 2) => &[[0, F, F], [F, 0, F]],
        (2, 2) => &[[0, 1, F], [1, 0, F]],
        (1, 3) => &[[0, F, F], [F, 0, F], [F, F, 0]],
        (2, 3) => &[[0, 1, F], [0, F, 1], [1, 0, F], [F, 0, 1], [1, F, 0], [F, 1, 0]],
        (3, 3) => &[[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]],
        _ => unreachable!("{k} x {l} is not a small assignment"),
    }
}

/// The assignment of a matrix with at most [`ENUM_SIDE`] rows and
/// columns by enumeration, when it is certain: the best total must beat
/// every other injection's by more than `1e-9 · max(1, best)`. No
/// weight exceeds `best` (each extends to a full injection), so the
/// Hungarian's potentials stay within a few ulps of `best` and it
/// cannot prefer an assignment that much worse. Fills `pairs` (sorted
/// by row) and returns the total summed as [`hungarian`] sums it, over
/// the long side in ascending order; `None` on a tie or a near-tie.
fn certified_small(
    weights: &[f64],
    n: usize,
    m: usize,
    pairs: &mut Vec<(usize, usize)>,
) -> Option<f64> {
    // As in the Hungarian: the short side indexes the assignment, the
    // long side is summed over. Cell `(s, t)` is `weights[s * ss + t * ts]`.
    let transpose = n > m;
    let (short, long, ss, ts) = if transpose { (m, n, 1, m) } else { (n, m, m, 1) };
    let candidates = injections(short, long);
    // At most 3! totals; fixed trip counts, the unused ones stay at -∞.
    let mut totals = [f64::NEG_INFINITY; 6];
    for (total, inverse) in totals.iter_mut().zip(candidates) {
        *total = 0.0;
        for (t, &s) in inverse.iter().enumerate() {
            if s != FREE {
                *total += weights[s as usize * ss + t * ts];
            }
        }
    }
    let (mut best, mut runner_up, mut chosen) = (f64::NEG_INFINITY, f64::NEG_INFINITY, 0);
    for (c, &total) in totals.iter().enumerate() {
        if total > best {
            (runner_up, best, chosen) = (best, total, c);
        } else if total > runner_up {
            runner_up = total;
        }
    }
    // False, so the Hungarian runs, when the margin is NaN (both totals
    // infinite).
    let certain = best - runner_up > 1e-9 * best.max(1.0);
    if !certain {
        return None;
    }
    for (t, &s) in candidates[chosen].iter().enumerate() {
        if s != FREE {
            pairs.push(if transpose { (t, s as usize) } else { (s as usize, t) });
        }
    }
    pairs.sort_unstable();
    Some(best)
}

/// The algorithm itself, on whichever storage [`assign_core`] chose.
fn hungarian(
    w: Work<'_>,
    weights: &[f64],
    n: usize,
    m: usize,
    pairs: &mut Vec<(usize, usize)>,
) -> f64 {
    // The potential-based Hungarian algorithm minimizes cost over a matrix
    // with rows <= cols; we maximize weight by negating. Transpose when
    // there are more rows than columns.
    let transpose = n > m;
    let (rows, cols) = if transpose { (m, n) } else { (n, m) };
    let weight = |i: usize, j: usize| weights[i * m + j];
    let cost = |i: usize, j: usize| -> f64 {
        if transpose {
            -weight(j, i)
        } else {
            -weight(i, j)
        }
    };

    const INF: f64 = f64::INFINITY;
    let Work {
        u,
        v,
        matched_col,
        way,
        minv,
        used,
    } = w;
    u.fill(0.0);
    v.fill(0.0);
    matched_col.fill(0); // column -> row (0 = free)
    way.fill(0);

    for i in 1..=rows {
        matched_col[0] = i;
        let mut j0 = 0usize;
        minv.fill(INF);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = matched_col[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=cols {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=cols {
                if used[j] {
                    u[matched_col[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if matched_col[j0] == 0 {
                break;
            }
        }
        // Augment along the found path.
        loop {
            let j1 = way[j0];
            matched_col[j0] = matched_col[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut total = 0.0;
    #[allow(clippy::needless_range_loop)] // j is also the column id, not just an index
    for j in 1..=cols {
        let i = matched_col[j];
        if i != 0 {
            let (ri, cj) = if transpose { (j - 1, i - 1) } else { (i - 1, j - 1) };
            pairs.push((ri, cj));
            total += weight(ri, cj);
        }
    }
    pairs.sort_unstable();
    total
}

/// [`max_weight_assignment`] over a flat row-major `rows × cols` matrix
/// with caller-owned buffers: no allocation after warm-up. Returns the
/// total assigned weight; the pairs are in [`AssignScratch::pairs`],
/// exactly those `max_weight_assignment` yields for the same weights.
///
/// # Panics
///
/// Panics if `weights.len() != rows * cols` or any weight is negative
/// or non-finite.
pub fn max_weight_assignment_with(
    scratch: &mut AssignScratch,
    weights: &[f64],
    rows: usize,
    cols: usize,
) -> f64 {
    assert_eq!(weights.len(), rows * cols, "weight matrix is not rows x cols");
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
    }
    assign_core(scratch, weights, rows, cols)
}

/// Compute a maximum-weight 1:1 assignment for a (possibly rectangular)
/// weight matrix `weights[i][j] ≥ 0`.
///
/// Every row and column is matched at most once; `min(rows, cols)` pairs
/// are produced. Weights must be finite and non-negative.
///
/// # Panics
///
/// Panics if rows have inconsistent lengths or any weight is negative or
/// non-finite.
pub fn max_weight_assignment(weights: &[Vec<f64>]) -> Assignment {
    let n = weights.len();
    if n == 0 {
        return Assignment { pairs: Vec::new(), total: 0.0 };
    }
    let m = weights[0].len();
    for row in weights {
        assert_eq!(row.len(), m, "ragged weight matrix");
        for &w in row {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
        }
    }
    let mut scratch = AssignScratch::default();
    let total = assign_core(&mut scratch, &weights.concat(), n, m);
    Assignment { pairs: scratch.pairs, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(weights: &[Vec<f64>]) -> f64 {
        // Exhaustive search over all injections rows -> cols.
        let n = weights.len();
        if n == 0 {
            return 0.0;
        }
        let m = weights[0].len();
        fn rec(weights: &[Vec<f64>], i: usize, used: &mut Vec<bool>) -> f64 {
            if i == weights.len() {
                return 0.0;
            }
            let m = used.len();
            // Option 1: leave row i unmatched.
            let mut best = rec(weights, i + 1, used);
            // Option 2: match row i to any free column.
            for j in 0..m {
                if !used[j] {
                    used[j] = true;
                    let s = weights[i][j] + rec(weights, i + 1, used);
                    used[j] = false;
                    best = best.max(s);
                }
            }
            best
        }
        let mut used = vec![false; m];
        rec(weights, 0, &mut used)
    }

    #[test]
    fn empty_matrix() {
        let a = max_weight_assignment(&[]);
        assert!(a.pairs.is_empty());
        assert_eq!(a.total, 0.0);
    }

    #[test]
    fn single_cell() {
        let a = max_weight_assignment(&[vec![0.7]]);
        assert_eq!(a.pairs, vec![(0, 0)]);
        assert!((a.total - 0.7).abs() < 1e-12);
    }

    #[test]
    fn square_prefers_diagonal_swap() {
        // Greedy would take (0,0)=0.9 then be forced into (1,1)=0.0,
        // total 0.9. Optimal is (0,1)+(1,0) = 0.8 + 0.8 = 1.6.
        let w = vec![vec![0.9, 0.8], vec![0.8, 0.0]];
        let a = max_weight_assignment(&w);
        assert_eq!(a.pairs, vec![(0, 1), (1, 0)]);
        assert!((a.total - 1.6).abs() < 1e-12);
    }

    #[test]
    fn rectangular_wide() {
        let w = vec![vec![0.1, 0.9, 0.2]];
        let a = max_weight_assignment(&w);
        assert_eq!(a.pairs, vec![(0, 1)]);
    }

    #[test]
    fn rectangular_tall() {
        let w = vec![vec![0.1], vec![0.9], vec![0.2]];
        let a = max_weight_assignment(&w);
        assert_eq!(a.pairs, vec![(1, 0)]);
        assert!((a.total - 0.9).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        // Deterministic pseudo-random matrices via a simple LCG.
        let mut state = 0x2545F491u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for n in 1..=4usize {
            for m in 1..=4usize {
                for _ in 0..20 {
                    let w: Vec<Vec<f64>> =
                        (0..n).map(|_| (0..m).map(|_| next()).collect()).collect();
                    let a = max_weight_assignment(&w);
                    let bf = brute_force(&w);
                    assert!(
                        (a.total - bf).abs() < 1e-9,
                        "n={n} m={m}: hungarian={} brute={bf}",
                        a.total
                    );
                    // 1:1 property.
                    let mut ri: Vec<usize> = a.pairs.iter().map(|p| p.0).collect();
                    let mut cj: Vec<usize> = a.pairs.iter().map(|p| p.1).collect();
                    ri.sort_unstable();
                    ri.dedup();
                    cj.sort_unstable();
                    cj.dedup();
                    assert_eq!(ri.len(), a.pairs.len());
                    assert_eq!(cj.len(), a.pairs.len());
                    assert_eq!(a.pairs.len(), n.min(m));
                }
            }
        }
    }

    /// The Hungarian alone, on heap storage.
    fn hungarian_only(weights: &[f64], n: usize, m: usize) -> (Vec<(usize, usize)>, f64) {
        let len = n.max(m) + 1;
        let (mut u, mut v, mut minv) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
        let (mut matched_col, mut way, mut used) = (vec![0; len], vec![0; len], vec![false; len]);
        let work = Work {
            u: &mut u,
            v: &mut v,
            matched_col: &mut matched_col,
            way: &mut way,
            minv: &mut minv,
            used: &mut used,
        };
        let mut pairs = Vec::new();
        let total = hungarian(work, weights, n, m, &mut pairs);
        (pairs, total)
    }

    #[test]
    fn certified_small_assignments_are_the_hungarians() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut certified, mut fell_back) = (0, 0);
        for n in 1..=3usize {
            for m in 1..=3usize {
                for case in 0..600 {
                    let scale = [1.0, 1e-6, 1e6][case % 3];
                    let w: Vec<f64> = (0..n * m)
                        .map(|_| match case % 4 {
                            // Coarse values tie often; fine ones rarely.
                            0 => (next() * 3.0).floor() / 2.0,
                            _ => next() * scale,
                        })
                        .collect();
                    let mut pairs = Vec::new();
                    let expected = hungarian_only(&w, n, m);
                    match certified_small(&w, n, m, &mut pairs) {
                        Some(total) => {
                            certified += 1;
                            assert_eq!(pairs, expected.0, "{n}x{m} {w:?}");
                            assert_eq!(total.to_bits(), expected.1.to_bits(), "{n}x{m} {w:?}");
                        }
                        None => fell_back += 1,
                    }
                }
            }
        }
        assert!(certified > 0 && fell_back > 0, "{certified} certified, {fell_back} fell back");
    }

    #[test]
    fn a_tie_is_left_to_the_hungarian() {
        let mut pairs = Vec::new();
        assert_eq!(certified_small(&[1.0, 1.0, 1.0, 1.0], 2, 2, &mut pairs), None);
        assert_eq!(certified_small(&[0.5, 0.5 + 1e-12], 1, 2, &mut pairs), None);
        assert!(pairs.is_empty());
        assert_eq!(certified_small(&[0.5, 0.5 + 1e-6], 1, 2, &mut pairs), Some(0.5 + 1e-6));
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_panics() {
        let _ = max_weight_assignment(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_weight_panics() {
        let _ = max_weight_assignment(&[vec![-1.0]]);
    }
}
