#include "markov/block_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/error.hpp"
#include "common/invariants.hpp"
#include "linalg/matrix.hpp"
#include "obs/trace.hpp"

namespace esched {

namespace {

/// Per-state (level, index-within-level) coordinates and each level's
/// states, flat: level l owns states[start[l] .. start[l + 1]), in
/// ascending global order, so the construction is deterministic.
struct LevelPartition {
  std::vector<std::size_t> local;   // index within the level
  std::vector<std::size_t> start;   // num_levels + 1 offsets into states
  std::vector<std::size_t> states;

  std::size_t num_levels() const { return start.size() - 1; }
  std::size_t size(std::size_t l) const { return start[l + 1] - start[l]; }
  const std::size_t* of(std::size_t l) const {
    return states.data() + start[l];
  }
};

LevelPartition partition_levels(const std::vector<std::uint32_t>& level_of,
                                std::size_t n) {
  ESCHED_CHECK(level_of.size() == n, "level_of dimension mismatch");
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  const std::size_t num_levels = static_cast<std::size_t>(max_level) + 1;
  LevelPartition p;
  p.local.resize(n);
  p.start.assign(num_levels + 1, 0);
  for (std::uint32_t l : level_of) ++p.start[l + 1];
  for (std::size_t l = 0; l < num_levels; ++l) {
    ESCHED_CHECK(p.start[l + 1] != 0,
                 "level " + std::to_string(l) +
                     " is empty: levels must be contiguous 0..L-1 (the "
                     "chain is reducible across levels)");
    p.start[l + 1] += p.start[l];
  }
  p.states.resize(n);
  std::vector<std::size_t> fill(p.start.begin(), p.start.end() - 1);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t at = fill[level_of[s]]++;
    p.local[s] = at - p.start[level_of[s]];
    p.states[at] = s;
  }
  return p;
}

/// Row operations run in whole tiles of kTile doubles: every panel and
/// factor row is padded to a multiple of kTile (widths below kTile stay
/// exact), and the fixed trip count of the tile loop is what GCC
/// vectorizes at -O2. Tiles span independent outputs only, so each entry
/// still sees its own terms one at a time, in the caller's order.
constexpr std::size_t kTile = 4;

/// Pivots per panel of the dense LU (see KeptFactor::factor).
constexpr std::size_t kPanel = 8;

std::uint32_t to_u32(std::size_t i) { return static_cast<std::uint32_t>(i); }

std::size_t round_up_to_tile(std::size_t w) {
  return (w + kTile - 1) / kTile * kTile;
}

/// Panel width for m right-hand sides: exact below one tile, else padded.
std::size_t panel_width(std::size_t m) {
  return m < kTile ? m : round_up_to_tile(m);
}

/// dst[j] += a * src[j] for j < width.
void add_scaled(double* __restrict dst, const double* __restrict src,
                double a, std::size_t width) {
  std::size_t j = 0;
  for (; j + kTile <= width; j += kTile) {
    for (std::size_t t = 0; t < kTile; ++t) dst[j + t] += a * src[j + t];
  }
  for (; j < width; ++j) dst[j] += a * src[j];
}

/// dst[t] -= a * src[t] for t < kWide.
template <std::size_t kWide>
void sub_scaled_tile(double* __restrict dst, const double* __restrict src,
                     double a) {
#pragma GCC unroll 16
  for (std::size_t t = 0; t < kWide; ++t) dst[t] -= a * src[t];
}

/// y[t] -= sum_e value[e] * row_of(e)[t] for t < kWide, the terms
/// subtracted one at a time in e order, with the kWide partial sums kept
/// in registers for the whole sum.
template <std::size_t kWide, typename RowOf>
void sub_rows_tile(double* __restrict y, RowOf row_of, const double* value,
                   std::size_t count) {
  double a[kWide];
#pragma GCC unroll 16
  for (std::size_t t = 0; t < kWide; ++t) a[t] = y[t];
  for (std::size_t e = 0; e < count; ++e) {
    const double* __restrict src = row_of(e);
    const double v = value[e];
#pragma GCC unroll 16
    for (std::size_t t = 0; t < kWide; ++t) a[t] -= v * src[t];
  }
#pragma GCC unroll 16
  for (std::size_t t = 0; t < kWide; ++t) y[t] = a[t];
}

/// Calls tile.template operator()<W>(j) over [0, width) in register tiles
/// of W = 16, 8 and 4 columns, then single columns.
template <typename Tile>
void for_each_tile(std::size_t width, Tile tile) {
  std::size_t j = 0;
  for (; j + 4 * kTile <= width; j += 4 * kTile) {
    tile.template operator()<4 * kTile>(j);
  }
  if (j + 2 * kTile <= width) {
    tile.template operator()<2 * kTile>(j);
    j += 2 * kTile;
  }
  if (j + kTile <= width) {
    tile.template operator()<kTile>(j);
    j += kTile;
  }
  for (; j < width; ++j) tile.template operator()<1>(j);
}

/// y[j] -= sum_e value[e] * rows[e * stride + j] for j < width, the terms
/// subtracted one at a time in e order.
void sub_dense(double* y, const double* rows, std::size_t stride,
               const double* value, std::size_t count, std::size_t width) {
  if (count == 0) return;
  for_each_tile(width, [&]<std::size_t kWide>(std::size_t j) {
    sub_rows_tile<kWide>(
        y + j, [&](std::size_t e) { return rows + e * stride + j; }, value,
        count);
  });
}

/// Nonzero entries of n lines (rows or columns) in one flat CSR layout:
/// line k holds index/value[start[k] .. start[k + 1]), indices ascending.
struct SparseLines {
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> index;
  std::vector<double> value;
};

/// One level's LU factors of the censored generator, kept for the
/// forward pass. G = (-S_{l+1})^T is symmetrically permuted so the
/// fold-densified indices come last (`order`), then row-pivoted: P G = L U.
/// Only nonzero entries are stored, so sparse leading rows stay sparse.
struct KeptFactor {
  std::vector<std::uint32_t> order;      ///< permuted index -> level-local
  std::vector<std::uint32_t> row_state;  ///< factor row -> level-local
  Vector diag;                           ///< diagonal of U
  SparseLines lower;                     ///< strict L, by column
  SparseLines upper;                     ///< strict U, by row

  /// Factors the n x n row-major `g` (row stride ld, a multiple of kTile,
  /// pad columns zero) in place, then keeps its nonzeros. Partial
  /// pivoting with the same singularity check as LuFactorization. The
  /// first n_sparse pivots eliminate the banded level generator: their
  /// updates touch only the pivot row's nonzero columns. The trailing
  /// fold-densified block runs in panels of kPanel pivots: each pivot
  /// updates the panel's own columns at once, and the columns right of
  /// the panel take the panel's kPanel updates in one register-tiled
  /// pass per row. Every entry still takes its updates one pivot at a
  /// time in pivot order, so the factors are those of the one-pivot-at-a-
  /// time elimination (which skips zero terms; a zero term changes no
  /// value).
  void factor(double* g, std::size_t n, std::size_t ld, std::size_t n_sparse,
              std::uint32_t* perm, std::vector<std::size_t>& urow,
              SparseLines& l_rec, SparseLines& u_rec) {
    for (std::size_t i = 0; i < n; ++i) perm[i] = to_u32(i);
    for (SparseLines* rec : {&l_rec, &u_rec}) {
      rec->start.assign(1, 0);
      rec->index.clear();
      rec->value.clear();
    }
    const auto push = [](SparseLines& rec, std::size_t i, double v) {
      rec.index.push_back(to_u32(i));
      rec.value.push_back(v);
    };
    const auto end_line = [](SparseLines& rec) {
      rec.start.push_back(to_u32(rec.index.size()));
    };
    bool swapped = false;
    const auto pivot = [&](std::size_t col) {
      std::size_t best_row = col;
      double best = std::abs(g[col * ld + col]);
      for (std::size_t r = col + 1; r < n; ++r) {
        const double cand = std::abs(g[r * ld + col]);
        if (cand > best) {
          best = cand;
          best_row = r;
        }
      }
      ESCHED_CHECK(best > 1e-300, "matrix is numerically singular");
      if (best_row != col) {
        std::swap_ranges(g + best_row * ld, g + best_row * ld + ld,
                         g + col * ld);
        std::swap(perm[best_row], perm[col]);
        swapped = true;
      }
      return 1.0 / g[col * ld + col];
    };
    for (std::size_t col = 0; col < n_sparse; ++col) {
      const double inv_diag = pivot(col);
      const double* prow = g + col * ld;
      urow.clear();
      for (std::size_t c = col + 1; c < n; ++c) {
        if (prow[c] == 0.0) continue;
        urow.push_back(c);
        push(u_rec, c, prow[c]);
      }
      end_line(u_rec);
      for (std::size_t r = col + 1; r < n; ++r) {
        double* row = g + r * ld;
        const double factor = row[col] * inv_diag;
        row[col] = factor;
        if (factor == 0.0) continue;
        push(l_rec, r, factor);
        for (const std::size_t c : urow) row[c] -= factor * prow[c];
      }
      end_line(l_rec);
    }
    for (std::size_t p0 = n_sparse; p0 < n; p0 += kPanel) {
      const std::size_t p1 = std::min(n, p0 + kPanel);
      for (std::size_t col = p0; col < p1; ++col) {
        const double inv_diag = pivot(col);
        const double* prow = g + col * ld;
        for (std::size_t r = col + 1; r < n; ++r) {
          double* row = g + r * ld;
          const double factor = row[col] * inv_diag;
          row[col] = factor;
          if (factor == 0.0) continue;
          push(l_rec, r, factor);
          for (std::size_t c = col + 1; c < p1; ++c) {
            row[c] -= factor * prow[c];
          }
        }
        end_line(l_rec);
      }
      // Right of the panel: the panel's rows take the updates of the
      // pivots above them, every later row all kPanel updates.
      const double* u = g + p0 * ld + p1;
      for (std::size_t r = p0 + 1; r < n; ++r) {
        double* row = g + r * ld;
        sub_dense(row + p1, u, ld, row + p0, std::min(r, p1) - p0, ld - p1);
      }
      for (std::size_t col = p0; col < p1; ++col) {
        const double* prow = g + col * ld;
        for (std::size_t c = col + 1; c < n; ++c) {
          if (prow[c] != 0.0) push(u_rec, c, prow[c]);
        }
        end_line(u_rec);
      }
    }
    // A row swap moves the multipliers already recorded in earlier
    // columns; rescan L then (partial pivoting rarely swaps here).
    keep(g, n, ld, perm, swapped ? nullptr : &l_rec, u_rec);
  }

  /// Solves G x = b in level-local indexing (the forward pass:
  /// pi_{l+1} = (pi_l B_l) (-S_{l+1})^{-1}). `x` is n doubles of scratch.
  void solve(const double* b, double* x, double* out) const {
    const std::size_t n = diag.size();
    for (std::size_t r = 0; r < n; ++r) x[r] = b[row_state[r]];
    for (std::size_t k = 0; k < n; ++k) {
      const double xk = x[k];
      if (xk == 0.0) continue;
      for (std::uint32_t e = lower.start[k]; e < lower.start[k + 1]; ++e) {
        x[lower.index[e]] -= lower.value[e] * xk;
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      double acc = x[k];
      for (std::uint32_t e = upper.start[k]; e < upper.start[k + 1]; ++e) {
        acc -= upper.value[e] * x[upper.index[e]];
      }
      x[k] = acc / diag[k];
    }
    for (std::size_t i = 0; i < n; ++i) out[order[i]] = x[i];
  }

  /// Solves G^T Y = C in place for a panel of right-hand sides: row i of
  /// the n x width `panel` holds entry order[i] of every right-hand side
  /// on entry, and row r holds entry row_state[r] of every solution on
  /// return. Runs tile by tile, so a tile's rows stay in cache for both
  /// sweeps; callers sort the columns by their first nonzero row, so a
  /// tile joins the U^T sweep only where one of its columns turns nonzero.
  void solve_transposed(double* panel, std::size_t width) const {
    for_each_tile(width, [&]<std::size_t kWide>(std::size_t j) {
      solve_transposed_tile<kWide>(panel + j, width);
    });
  }

 private:
  /// solve_transposed on kWide panel columns (row stride `width`): the
  /// U^T sweep divides row k by its pivot, then subtracts multiples of it
  /// from later rows (skipped while the tile's row k is all zero, as a
  /// vector solve skips a zero entry); the L^T sweep subtracts from row k
  /// the multiples of later rows, in ascending row order.
  template <std::size_t kWide>
  void solve_transposed_tile(double* __restrict panel,
                             std::size_t width) const {
    const std::size_t n = diag.size();
    for (std::size_t k = 0; k < n; ++k) {
      double* yk = panel + k * width;
      const double d = diag[k];
      double y[kWide];
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kWide; ++t) y[t] = yk[t] / d;
#pragma GCC unroll 16
      for (std::size_t t = 0; t < kWide; ++t) yk[t] = y[t];
      if (std::all_of(y, y + kWide, [](double v) { return v == 0.0; })) {
        continue;
      }
      for (std::uint32_t e = upper.start[k]; e < upper.start[k + 1]; ++e) {
        sub_scaled_tile<kWide>(panel + upper.index[e] * width, y,
                               upper.value[e]);
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      const std::uint32_t* index = lower.index.data() + lower.start[k];
      sub_rows_tile<kWide>(
          panel + k * width,
          [&](std::size_t e) { return panel + index[e] * width; },
          lower.value.data() + lower.start[k],
          lower.start[k + 1] - lower.start[k]);
    }
  }

  /// Keeps the factors: U as recorded row by row, L as recorded column by
  /// column or, with l_rec null, rescanned from g.
  void keep(const double* g, std::size_t n, std::size_t ld,
            const std::uint32_t* perm, const SparseLines* l_rec,
            const SparseLines& u_rec) {
    row_state.resize(n);
    diag.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      row_state[r] = order[perm[r]];
      diag[r] = g[r * ld + r];
    }
    upper = u_rec;
    if (l_rec != nullptr) {
      lower = *l_rec;
    } else {
      keep_lines(lower, n, [&](std::size_t k, std::size_t i) {
        return g[i * ld + k];
      });
    }
  }

  /// Keeps line k's nonzero entries at(k, i), i in (k, n), for every k.
  template <typename At>
  static void keep_lines(SparseLines& lines, std::size_t n, At at) {
    lines.start.assign(n + 1, 0);
    for (std::size_t k = 0; k < n; ++k) {
      std::uint32_t count = 0;
      for (std::size_t i = k + 1; i < n; ++i) count += at(k, i) != 0.0;
      lines.start[k + 1] = lines.start[k] + count;
    }
    lines.index.resize(lines.start[n]);
    lines.value.resize(lines.start[n]);
    std::uint32_t e = 0;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = at(k, i);
        if (v == 0.0) continue;
        lines.index[e] = to_u32(i);
        lines.value[e++] = v;
      }
    }
  }
};

}  // namespace

std::size_t block_solver_workspace_bytes(
    const std::vector<std::uint32_t>& level_of) {
  if (level_of.empty()) return 0;
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  std::vector<std::size_t> size(static_cast<std::size_t>(max_level) + 1, 0);
  for (std::uint32_t l : level_of) ++size[l];
  std::size_t doubles = 0;
  std::size_t max_block = 0;
  for (std::size_t l = 0; l < size.size(); ++l) {
    max_block = std::max(max_block, size[l]);
    if (l > 0) doubles += size[l] * size[l];  // kept LU factor of -S_l^T
  }
  doubles += 3 * max_block * max_block;  // S, its transpose, next scratch
  return doubles * sizeof(double);
}

double block_solver_flop_estimate(const CsrMatrix& rates,
                                  const std::vector<std::uint32_t>& level_of) {
  const std::size_t n = rates.rows();
  if (n == 0 || level_of.size() != n) return 0.0;
  std::uint32_t max_level = 0;
  for (std::uint32_t l : level_of) max_level = std::max(max_level, l);
  const std::size_t num_levels = static_cast<std::size_t>(max_level) + 1;
  std::vector<double> size(num_levels, 0.0);
  for (std::uint32_t l : level_of) size[l] += 1.0;
  // m_l = distinct level-l states hit by a down-transition; these are the
  // columns the fold densifies when level l's censored block is factored.
  std::vector<char> is_target(n, 0);
  std::vector<double> dense(num_levels, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* to = rates.row_cols(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::size_t t = to[k];
      if (level_of[t] + 1 == level_of[s] && is_target[t] == 0) {
        is_target[t] = 1;
        dense[level_of[t]] += 1.0;
      }
    }
  }
  double flops = size[0] * size[0] * size[0];  // dense GTH on S_0
  for (std::size_t l = 1; l < num_levels; ++l) {
    flops += size[l] * dense[l] * dense[l] + dense[l] * dense[l] * dense[l];
  }
  return flops;
}

Vector block_tridiagonal_stationary(const CsrMatrix& rates,
                                    const Vector& exit_rates,
                                    const std::vector<std::uint32_t>& level_of,
                                    StationarySolveInfo* info) {
  ESCHED_CHECK(rates.rows() == rates.cols(), "generator must be square");
  const std::size_t n = rates.rows();
  ESCHED_CHECK(exit_rates.size() == n, "exit-rate dimension mismatch");
  ESCHED_DEBUG_CHECK(
      check_generator(rates, exit_rates, "block_tridiagonal_stationary"));
  const LevelPartition part = partition_levels(level_of, n);
  const std::size_t num_levels = part.num_levels();

  // Validate the level structure once up front so the elimination below
  // can assume |level(from) - level(to)| <= 1, and that every level can be
  // left downwards at all — a level with no down-transitions makes the
  // censored blocks exactly singular (everything below it is transient),
  // which the direct elimination cannot represent; callers fall back to an
  // iterative solver for such chains.
  std::vector<bool> has_down(num_levels, false);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t* to = rates.row_cols(s);
    const std::size_t nnz = rates.row_nnz(s);
    for (std::size_t k = 0; k < nnz; ++k) {
      const long diff = static_cast<long>(level_of[s]) -
                        static_cast<long>(level_of[to[k]]);
      ESCHED_CHECK(diff >= -1 && diff <= 1,
                   "transition " + std::to_string(s) + " -> " +
                       std::to_string(to[k]) + " jumps from level " +
                       std::to_string(level_of[s]) + " to level " +
                       std::to_string(level_of[to[k]]) +
                       ": the chain is not level-structured");
      if (diff == 1) has_down[level_of[s]] = true;
    }
  }
  for (std::size_t l = 1; l < num_levels; ++l) {
    ESCHED_CHECK(has_down[l],
                 "level " + std::to_string(l) +
                     " has no transitions to level " + std::to_string(l - 1) +
                     ": the chain is reducible across levels (everything "
                     "below is transient); use an iterative solver");
  }

  // One workspace for the whole solve, sized by the largest level: the
  // censored block S and its successor, the factor buffer, the panel of
  // fold right-hand sides with one accumulator row, and index scratch.
  std::size_t max_b = 0;
  for (std::size_t l = 0; l < num_levels; ++l) {
    max_b = std::max(max_b, part.size(l));
  }
  const std::size_t max_ld = round_up_to_tile(max_b);
  Vector s_block(max_b * max_b);
  Vector next(max_b * max_b);
  Vector g(max_b * max_ld);
  Vector panel(max_b * max_ld);
  Vector acc(max_ld);
  constexpr std::size_t kInactive = static_cast<std::size_t>(-1);
  std::vector<std::size_t> urow, panel_row(max_b), col_slot(max_b),
      first_row(max_b), col_of(max_b), solved_row(max_b);
  urow.reserve(max_b);
  std::vector<std::uint32_t> perm(max_b);
  SparseLines l_rec, u_rec;
  // Columns of the current S that a fold has touched: A_l is sparse, and
  // the fold only densifies the columns that receive down-transitions, so
  // marking them lets each factorization order the dense part last.
  std::vector<char> fold_marks(max_b, 0);

  // Dense within-level block A_l (row-major, b x b) with the implied
  // diagonal -exit. Exit rates include transitions to *other* levels, so
  // the diagonal of S_l carries the escape mass GTH later treats as
  // censored.
  const auto level_block = [&](std::size_t l, double* a) {
    const std::size_t* states = part.of(l);
    const std::size_t b = part.size(l);
    std::fill(a, a + b * b, 0.0);
    for (std::size_t r = 0; r < b; ++r) {
      const std::size_t u = states[r];
      a[r * b + r] = -exit_rates[u];
      const std::size_t* to = rates.row_cols(u);
      const double* rate = rates.row_values(u);
      const std::size_t nnz = rates.row_nnz(u);
      for (std::size_t k = 0; k < nnz; ++k) {
        if (level_of[to[k]] == l) a[r * b + part.local[to[k]]] += rate[k];
      }
    }
  };

  // Backward sweep: S starts as A_{L-1}; each step folds level l+1 into
  // level l. The expected-visits factor R_l = B_l (-S_{l+1})^{-1} is never
  // formed densely: the fold S_l = A_l + R_l C_{l+1} needs only
  // X = (-S_{l+1})^{-1} C_{l+1} on the nonzero COLUMNS of C — and
  // down-transitions land on few level-l states — and the forward pass
  // needs only pi_l R_l, one solve against the kept factor per level.
  // That replaces b solves per level (every row of R) with one panel
  // solve of ~|cols(C)| right-hand sides plus one vector solve, which is
  // what makes the direct solve beat SOR on the phase-augmented chains.
  std::vector<KeptFactor> kept(num_levels - 1);
  {
    const TraceSpan backward_span("block.backward");
    level_block(num_levels - 1, s_block.data());
    for (std::size_t l = num_levels - 1; l-- > 0;) {
      const std::size_t* above = part.of(l + 1);
      const std::size_t b = part.size(l);
      const std::size_t b_up = part.size(l + 1);

      // Factor G = (-S_{l+1})^T: solve() then gives v^T (-S_{l+1})^{-1}
      // (the forward-pass direction) and solve_transposed() gives
      // (-S_{l+1})^{-1} C (the X panel below). Fold-densified columns of S
      // become dense rows of G; order them last so the leading sparse part
      // eliminates without fill spreading.
      KeptFactor& factor = kept[l];
      factor.order.resize(b_up);
      std::size_t n_sparse = 0;
      for (std::size_t i = 0; i < b_up; ++i) {
        if (fold_marks[i] == 0) factor.order[n_sparse++] = to_u32(i);
      }
      for (std::size_t i = 0, at = n_sparse; i < b_up; ++i) {
        if (fold_marks[i] != 0) factor.order[at++] = to_u32(i);
      }
      const std::size_t ld = round_up_to_tile(b_up);
      for (std::size_t r = 0; r < b_up; ++r) {
        double* row = g.data() + r * ld;
        const std::size_t col = factor.order[r];
        for (std::size_t c = 0; c < b_up; ++c) {
          row[c] = -s_block[factor.order[c] * b_up + col];
        }
        std::fill(row + b_up, row + ld, 0.0);
        panel_row[factor.order[r]] = r;
      }
      factor.factor(g.data(), b_up, ld, n_sparse, perm.data(), urow, l_rec,
                    u_rec);

      // The active columns of C_{l+1} (level-l down-targets), sorted by
      // the first panel row their right-hand side fills. Panel row i holds
      // level-(l+1) state order[i] on input.
      std::fill(col_slot.begin(), col_slot.begin() + b, kInactive);
      for (std::size_t r2 = 0; r2 < b_up; ++r2) {
        const std::size_t* to = rates.row_cols(above[r2]);
        const std::size_t nnz = rates.row_nnz(above[r2]);
        for (std::size_t k = 0; k < nnz; ++k) {
          if (level_of[to[k]] != l) continue;
          const std::size_t c = part.local[to[k]];
          if (col_slot[c] == kInactive) {
            col_slot[c] = 0;
            first_row[c] = panel_row[r2];
          } else {
            first_row[c] = std::min(first_row[c], panel_row[r2]);
          }
        }
      }
      std::size_t m = 0;
      for (std::size_t c = 0; c < b; ++c) {
        if (col_slot[c] != kInactive) col_of[m++] = c;
      }
      std::sort(col_of.begin(), col_of.begin() + m,
                [&](std::size_t x, std::size_t y) {
                  return std::pair(first_row[x], x) <
                         std::pair(first_row[y], y);
                });
      for (std::size_t j = 0; j < m; ++j) col_slot[col_of[j]] = j;

      // X = (-S_{l+1})^{-1} C_{l+1} for every active column at once.
      // Each right-hand side is summed in the order of its entries, from
      // zero, as a vector of its own would be.
      const std::size_t width = panel_width(m);
      std::fill(panel.begin(), panel.begin() + b_up * width, 0.0);
      for (std::size_t r2 = 0; r2 < b_up; ++r2) {
        const std::size_t* to = rates.row_cols(above[r2]);
        const double* rate = rates.row_values(above[r2]);
        const std::size_t nnz = rates.row_nnz(above[r2]);
        double* row = panel.data() + panel_row[r2] * width;
        for (std::size_t k = 0; k < nnz; ++k) {
          if (level_of[to[k]] == l) {
            row[col_slot[part.local[to[k]]]] += rate[k];
          }
        }
      }
      factor.solve_transposed(panel.data(), width);
      for (std::size_t r = 0; r < b_up; ++r) {
        solved_row[factor.row_state[r]] = r;
      }

      // S_l = A_l + B_l X, one level-l row at a time: per entry the terms
      // of B_l's row are summed in CSR order from zero, then added once.
      level_block(l, next.data());
      const std::size_t* states = part.of(l);
      for (std::size_t i = 0; i < b; ++i) {
        const std::size_t u = states[i];
        const std::size_t* to = rates.row_cols(u);
        const double* rate = rates.row_values(u);
        const std::size_t nnz = rates.row_nnz(u);
        std::fill(acc.begin(), acc.begin() + width, 0.0);
        for (std::size_t k = 0; k < nnz; ++k) {
          if (level_of[to[k]] != l + 1) continue;
          add_scaled(acc.data(),
                     panel.data() + solved_row[part.local[to[k]]] * width,
                     rate[k], width);
        }
        double* row = next.data() + i * b;
        for (std::size_t j = 0; j < m; ++j) row[col_of[j]] += acc[j];
      }
      std::swap(s_block, next);
      for (std::size_t c = 0; c < b; ++c) {
        fold_marks[c] = col_slot[c] != kInactive ? 1 : 0;
      }
    }
  }

  Vector pi(n, 0.0);
  {
    const TraceSpan forward_span("block.forward");
    // The censored generator S_0 is a proper (conservative up to roundoff)
    // generator of the level-0 process; GTH ignores its diagonal, so row-sum
    // drift is harmless — only clamp roundoff-negative off-diagonals.
    const std::size_t b0 = part.size(0);
    Matrix s0(b0, b0);
    for (std::size_t r = 0; r < b0; ++r) {
      for (std::size_t c = 0; c < b0; ++c) {
        const double v = s_block[r * b0 + c];
        s0(r, c) = r != c && v < 0.0 ? 0.0 : v;
      }
    }
    Vector level_pi(max_b);
    {
      const Vector pi0 = gth_stationary(std::move(s0));
      std::copy(pi0.begin(), pi0.end(), level_pi.begin());
    }

    for (std::size_t r = 0; r < b0; ++r) pi[part.of(0)[r]] = level_pi[r];
    Vector rhs(max_b), up_pi(max_b);
    for (std::size_t l = 0; l + 1 < num_levels; ++l) {
      // pi_{l+1} = pi_l R_l = (pi_l B_l) (-S_{l+1})^{-1}. Exact arithmetic
      // keeps this non-negative (R is an expected-visits matrix); clamp the
      // roundoff dust so downstream mass sums keep the old >= 0 guarantee.
      const std::size_t* states = part.of(l);
      const std::size_t* above = part.of(l + 1);
      const std::size_t b_up = part.size(l + 1);
      std::fill(rhs.begin(), rhs.begin() + b_up, 0.0);
      for (std::size_t i = 0; i < part.size(l); ++i) {
        const std::size_t u = states[i];
        const std::size_t* to = rates.row_cols(u);
        const double* rate = rates.row_values(u);
        const std::size_t nnz = rates.row_nnz(u);
        for (std::size_t k = 0; k < nnz; ++k) {
          if (level_of[to[k]] == l + 1) {
            rhs[part.local[to[k]]] += level_pi[i] * rate[k];
          }
        }
      }
      kept[l].solve(rhs.data(), acc.data(), up_pi.data());
      for (std::size_t c = 0; c < b_up; ++c) {
        const double v = up_pi[c] < 0.0 ? 0.0 : up_pi[c];
        level_pi[c] = v;
        pi[above[c]] = v;
      }
    }
  }
  normalize_probability(pi);
  ESCHED_DEBUG_CHECK(check_probability_vector(pi, "block_tridiagonal_stationary"));

  if (info != nullptr) {
    info->iterations = 0;
    info->converged = true;
    info->residual = stationary_residual(rates, exit_rates, pi);
  }
  return pi;
}

Vector block_tridiagonal_stationary(const SparseCtmc& chain,
                                    const std::vector<std::uint32_t>& level_of,
                                    StationarySolveInfo* info) {
  return block_tridiagonal_stationary(chain.rate_matrix(),
                                      chain.exit_rates(), level_of, info);
}

}  // namespace esched
