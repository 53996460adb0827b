// Checks made apart from the solver. Each verdict is recomputed from the
// input matrix with code of this file only: the residual uses its own
// SpMV, and the graph checks re-derive block, half and permutation
// membership instead of trusting the structures they inspect.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "basker/graph/btf.hpp"
#include "basker/graph/matching.hpp"
#include "basker/graph/nd.hpp"
#include "basker/sparse/csc.hpp"

namespace perfbench {

using basker::Csc;
using basker::Int;
using basker::Size;

/// A solve passes when its normwise backward error stays under this bound.
/// A stable factorization of these inputs lands at 1e-16 or below; the
/// bound leaves six decades for pivot growth in the values-only refactor()
/// replay and still rejects any wrong answer, whose error is of order 1.
inline constexpr double kMaxBackwardError = 1e-10;

/// ||A||inf: largest absolute row sum.
inline double norm_inf(const Csc& a) {
  std::vector<double> row_sum(static_cast<size_t>(a.nrows), 0.0);
  for (Int j = 0; j < a.ncols; ++j) {
    for (Size p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      row_sum[static_cast<size_t>(a.row_idx[p])] += std::abs(a.values[p]);
    }
  }
  double m = 0.0;
  for (double s : row_sum) m = std::max(m, s);
  return m;
}

inline double vec_norm_inf(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

/// Normwise backward error ||Ax - b||inf / (||A||inf ||x||inf + ||b||inf).
/// Non-finite x yields +inf, so a NaN solution never passes.
inline double backward_error(const Csc& a, double a_norm,
                             const std::vector<double>& x,
                             const std::vector<double>& b) {
  std::vector<double> r(b);
  for (Int j = 0; j < a.ncols; ++j) {
    const double xj = x[static_cast<size_t>(j)];
    if (!std::isfinite(xj)) return HUGE_VAL;
    for (Size p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      r[static_cast<size_t>(a.row_idx[p])] -= a.values[p] * xj;
    }
  }
  return vec_norm_inf(r) / (a_norm * vec_norm_inf(x) + vec_norm_inf(b));
}

inline bool bit_equal(const std::vector<double>& u, const std::vector<double>& v) {
  return u.size() == v.size() &&
         std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0;
}

/// p lists every index of [0, n) exactly once.
inline bool is_permutation_of(const std::vector<Int>& p, Int n) {
  if (static_cast<Int>(p.size()) != n) return false;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  for (Int v : p) {
    if (v < 0 || v >= n || seen[static_cast<size_t>(v)]) return false;
    seen[static_cast<size_t>(v)] = 1;
  }
  return true;
}

/// The matching pairs every column with a distinct row, and each matched
/// (row, column) is a stored nonzero of a.
inline bool matching_ok(const Csc& a, const basker::Matching& m) {
  if (!is_permutation_of(m.row_of_col, a.ncols)) return false;
  for (Int j = 0; j < a.ncols; ++j) {
    const Int i = m.row_of_col[static_cast<size_t>(j)];
    bool found = false;
    for (Size p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      if (a.row_idx[p] == i) {
        found = a.values[p] != 0.0;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Position -> block map of a BTF result; empty when the offsets do not
/// tile [0, n) in increasing order.
inline std::vector<Int> block_of_position(const basker::BtfResult& btf, Int n) {
  const auto& off = btf.block_offsets;
  if (off.size() < 2 || off.front() != 0 || off.back() != n) return {};
  std::vector<Int> block(static_cast<size_t>(n));
  for (size_t b = 0; b + 1 < off.size(); ++b) {
    if (off[b] >= off[b + 1]) return {};
    for (Int k = off[b]; k < off[b + 1]; ++k) block[static_cast<size_t>(k)] = static_cast<Int>(b);
  }
  return block;
}

/// a(perm, perm) has no stored entry below its block diagonal.
inline bool btf_ok(const Csc& a, const basker::BtfResult& btf) {
  const Int n = a.ncols;
  if (!is_permutation_of(btf.perm, n)) return false;
  const std::vector<Int> block = block_of_position(btf, n);
  if (block.empty()) return false;
  std::vector<Int> pos(static_cast<size_t>(n));
  for (Int k = 0; k < n; ++k) pos[static_cast<size_t>(btf.perm[static_cast<size_t>(k)])] = k;
  for (Int j = 0; j < n; ++j) {
    const Int bj = block[static_cast<size_t>(pos[static_cast<size_t>(j)])];
    for (Size p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      if (block[static_cast<size_t>(pos[static_cast<size_t>(a.row_idx[p])])] > bj) return false;
    }
  }
  return true;
}

/// No edge of the symmetric pattern s joins the two subtrees under the top
/// separator of tree. Requires tree.nlevels >= 1.
inline bool nd_ok(const Csc& s, const basker::NdTree& tree) {
  const Int n = s.ncols;
  if (!is_permutation_of(tree.perm, n) || tree.nlevels < 1) return false;
  if (tree.seg_offset.size() != static_cast<size_t>(tree.nsegments) + 1 ||
      tree.seg_offset.front() != 0 || tree.seg_offset.back() != n) {
    return false;
  }
  const Int root = tree.nsegments - 1;
  const auto& kids = tree.seg_children[static_cast<size_t>(root)];
  // half[v]: 0 or 1 for the subtree holding vertex v, -1 on the separator.
  std::vector<Int> half(static_cast<size_t>(n), -1);
  for (Int seg = 0; seg < tree.nsegments; ++seg) {
    Int h = -1;
    if (tree.is_ancestor_or_self(kids[0], seg)) h = 0;
    if (tree.is_ancestor_or_self(kids[1], seg)) h = 1;
    for (Int k = tree.seg_offset[static_cast<size_t>(seg)];
         k < tree.seg_offset[static_cast<size_t>(seg) + 1]; ++k) {
      half[static_cast<size_t>(tree.perm[static_cast<size_t>(k)])] = h;
    }
  }
  for (Int j = 0; j < n; ++j) {
    const Int hj = half[static_cast<size_t>(j)];
    if (hj < 0) continue;
    for (Size p = s.col_ptr[j]; p < s.col_ptr[j + 1]; ++p) {
      const Int hi = half[static_cast<size_t>(s.row_idx[p])];
      if (hi >= 0 && hi != hj) return false;
    }
  }
  return true;
}

/// Largest |got - want| is within rounding of k-term sums: k * 1e-14 of
/// the largest |want|.
inline bool close_to(const std::vector<double>& got, const std::vector<double>& want, Int k) {
  double diff = 0.0, scale = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return got.size() == want.size() && diff <= 1e-14 * k * scale;
}

/// c == c0 - times * a * b for column-major a (m x k), b (k x n), c (m x n).
inline bool gemm_ok(Int m, Int n, Int k, const std::vector<double>& a,
                    const std::vector<double>& b, const std::vector<double>& c0,
                    const std::vector<double>& c, int times) {
  std::vector<double> want(c0);
  for (Int j = 0; j < n; ++j) {
    for (Int t = 0; t < k; ++t) {
      const double btj = times * b[static_cast<size_t>(j) * k + t];
      for (Int i = 0; i < m; ++i) {
        want[static_cast<size_t>(j) * m + i] -= a[static_cast<size_t>(t) * m + i] * btj;
      }
    }
  }
  return close_to(c, want, times * k);
}

/// The m x w column-major panel lu holds unit-lower L and upper U with
/// L * U == a0(perm, :).
inline bool panel_lu_ok(Int m, Int w, const std::vector<double>& a0,
                        const std::vector<double>& lu, const std::vector<Int>& perm) {
  if (!is_permutation_of(perm, m)) return false;
  std::vector<double> got(static_cast<size_t>(m) * w), want(got.size());
  for (Int j = 0; j < w; ++j) {
    for (Int i = 0; i < m; ++i) {
      double sum = 0.0;
      for (Int k = 0; k <= std::min(i, j); ++k) {
        const double l = k == i ? 1.0 : lu[static_cast<size_t>(k) * m + i];
        sum += l * lu[static_cast<size_t>(j) * m + k];
      }
      got[static_cast<size_t>(j) * m + i] = sum;
      want[static_cast<size_t>(j) * m + i] =
          a0[static_cast<size_t>(j) * m + perm[static_cast<size_t>(i)]];
    }
  }
  return close_to(got, want, w);
}

}  // namespace perfbench
