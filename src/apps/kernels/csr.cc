#include "apps/kernels/csr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace merch::apps {

CsrMatrix GenerateKronMatrix(std::uint32_t rows, double avg_degree,
                             double skew, Rng& rng) {
  assert(rows > 0);
  CsrMatrix m;
  m.rows = rows;
  m.cols = rows;
  m.row_ptr.resize(rows + 1, 0);

  // Power-law degrees: degree of row r proportional to Zipf over a random
  // permutation of ranks (so hubs are spread through the index space, as in
  // kron generators after relabeling).
  ZipfSampler zipf(rows, skew);
  const auto rank_of = rng.Permutation(rows);
  std::vector<std::uint32_t> degree(rows);
  // Normalise so the average degree matches.
  double pmf_sum = 0;
  for (std::uint32_t r = 0; r < rows; ++r) pmf_sum += zipf.Pmf(rank_of[r]);
  const double scale =
      avg_degree * static_cast<double>(rows) / std::max(pmf_sum, 1e-300);
  for (std::uint32_t r = 0; r < rows; ++r) {
    const double want = zipf.Pmf(rank_of[r]) * scale;
    degree[r] = static_cast<std::uint32_t>(want) +
                (rng.NextDouble() < want - std::floor(want) ? 1 : 0);
    degree[r] = std::min(degree[r], rows);
  }

  std::uint64_t nnz = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    m.row_ptr[r] = nnz;
    nnz += degree[r];
  }
  m.row_ptr[rows] = nnz;
  m.col_idx.resize(nnz);
  m.values.resize(nnz);

  // Column targets also follow the Zipf (hubs receive edges too).
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint64_t begin = m.row_ptr[r];
    for (std::uint32_t k = 0; k < degree[r]; ++k) {
      const auto rank = static_cast<std::uint32_t>(zipf.Sample(rng));
      // Invert the permutation cheaply: map rank back through a hash-like
      // scramble (exact inversion is unnecessary for structure).
      m.col_idx[begin + k] =
          static_cast<std::uint32_t>(rank_of[rank % rows]);
      m.values[begin + k] = rng.NextDoubleInRange(-1.0, 1.0);
    }
    // Sort the row's columns. Duplicates stay: a row keeps every sampled
    // edge, so its length is the sampled degree that the SpGEMM and BFS
    // builders measure, and every answer depends on that. Sorting makes
    // duplicates adjacent, which SpGemmSymbolic relies on. Values are
    // not permuted with their columns.
    auto* cb = m.col_idx.data() + begin;
    std::sort(cb, cb + degree[r]);
  }
  return m;
}

std::vector<std::uint64_t> SpGemmSymbolic(const CsrMatrix& a,
                                          const CsrMatrix& b) {
  assert(a.cols == b.rows);
  std::vector<std::uint64_t> row_nnz(a.rows, 0);
  std::vector<std::uint32_t> marker(b.cols,
                                    std::numeric_limits<std::uint32_t>::max());
  for (std::uint32_t i = 0; i < a.rows; ++i) {
    std::uint64_t count = 0;
    std::uint32_t prev = std::numeric_limits<std::uint32_t>::max();
    for (std::uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const std::uint32_t col = a.col_idx[k];
      // A repeated column revisits a B row whose columns are already
      // marked for row i, so it adds nothing; sorted rows keep repeats
      // adjacent.
      if (col == prev) continue;
      prev = col;
      for (std::uint64_t j = b.row_ptr[col]; j < b.row_ptr[col + 1]; ++j) {
        const std::uint32_t c = b.col_idx[j];
        count += marker[c] != i;  // branch-free: hits and misses both store
        marker[c] = i;
      }
    }
    row_nnz[i] = count;
  }
  return row_nnz;
}

CsrMatrix SpGemmNumeric(const CsrMatrix& a, const CsrMatrix& b) {
  assert(a.cols == b.rows);
  const auto row_nnz = SpGemmSymbolic(a, b);
  CsrMatrix c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.resize(a.rows + 1, 0);
  for (std::uint32_t i = 0; i < a.rows; ++i) {
    c.row_ptr[i + 1] = c.row_ptr[i] + row_nnz[i];
  }
  c.col_idx.resize(c.row_ptr[a.rows]);
  c.values.resize(c.row_ptr[a.rows]);

  std::vector<double> accum(b.cols, 0.0);
  std::vector<std::uint32_t> marker(b.cols,
                                    std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> cols_here;
  for (std::uint32_t i = 0; i < a.rows; ++i) {
    cols_here.clear();
    for (std::uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const std::uint32_t col = a.col_idx[k];
      const double av = a.values[k];
      for (std::uint64_t j = b.row_ptr[col]; j < b.row_ptr[col + 1]; ++j) {
        const std::uint32_t cc = b.col_idx[j];
        if (marker[cc] != i) {
          marker[cc] = i;
          accum[cc] = 0.0;
          cols_here.push_back(cc);
        }
        accum[cc] += av * b.values[j];
      }
    }
    std::sort(cols_here.begin(), cols_here.end());
    std::uint64_t out = c.row_ptr[i];
    for (const std::uint32_t cc : cols_here) {
      c.col_idx[out] = cc;
      c.values[out] = accum[cc];
      ++out;
    }
  }
  return c;
}

std::uint64_t SpGemmFlops(const CsrMatrix& a, const CsrMatrix& b,
                          std::uint32_t row_begin, std::uint32_t row_end) {
  std::uint64_t flops = 0;
  for (std::uint32_t i = row_begin; i < row_end && i < a.rows; ++i) {
    for (std::uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const std::uint32_t col = a.col_idx[k];
      flops += b.row_ptr[col + 1] - b.row_ptr[col];
    }
  }
  return flops;
}

std::vector<std::uint32_t> BfsLevels(const CsrMatrix& graph,
                                     std::uint32_t source,
                                     std::uint32_t num_partitions,
                                     std::vector<std::uint64_t>* edges_relaxed,
                                     std::uint32_t max_depth) {
  const std::uint32_t n = graph.rows;
  assert(source < n);
  const std::uint32_t part_size = (n + num_partitions - 1) / num_partitions;
  if (edges_relaxed != nullptr) {
    edges_relaxed->assign(num_partitions, 0);
  }
  std::vector<std::uint32_t> level(n, std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> frontier = {source};
  level[source] = 0;
  std::uint32_t depth = 0;
  std::vector<std::uint32_t> next;
  while (!frontier.empty()) {
    if (max_depth > 0 && depth >= max_depth) break;
    next.clear();
    for (const std::uint32_t u : frontier) {
      if (edges_relaxed != nullptr) {
        (*edges_relaxed)[u / part_size] +=
            graph.row_ptr[u + 1] - graph.row_ptr[u];
      }
      for (std::uint64_t k = graph.row_ptr[u]; k < graph.row_ptr[u + 1]; ++k) {
        const std::uint32_t v = graph.col_idx[k];
        if (level[v] == std::numeric_limits<std::uint32_t>::max()) {
          level[v] = depth + 1;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    ++depth;
  }
  return level;
}

}  // namespace merch::apps
