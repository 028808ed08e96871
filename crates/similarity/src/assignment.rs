//! Maximum-weight 1:1 assignment (Hungarian algorithm).
//!
//! The Generalized Jaccard Coefficient and the paper's name matcher
//! (Section 6.5: "we matched every combination of them and used the 1:1
//! matching with the highest similarity") need an exact maximum-weight
//! bipartite matching. Token sets are tiny (person names have ≤ 4
//! tokens), so the `O(n³)` Hungarian algorithm is more than fast enough
//! while avoiding the pitfalls of greedy matching.

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

/// Hungarian algorithm over a flat row-major `n × m` matrix of finite,
/// non-negative weights. Fills `scratch.pairs` (sorted by row) and
/// returns the total assigned weight; produces exactly the pairs
/// [`max_weight_assignment`] would.
pub(crate) fn assign_core(scratch: &mut AssignScratch, weights: &[f64], n: usize, m: usize) -> f64 {
    scratch.pairs.clear();
    if n == 0 || m == 0 {
        return 0.0;
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
