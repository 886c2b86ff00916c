// Tests for the kernel/backend layer: every kernel is compared against
// a naive reference, and — the determinism contract — produces bitwise
// identical results under the serial backend and the parallel backend
// at 2 and 8 threads. A gradcheck run under ParallelBackend proves the
// backward pass is deterministic too.

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/gnn/factor_gcn.h"
#include "src/gnn/gat_conv.h"
#include "src/gnn/gcn_conv.h"
#include "src/gnn/gin_conv.h"
#include "src/gnn/pna_conv.h"
#include "src/gnn/pool_common.h"
#include "src/gnn/sage_conv.h"
#include "src/graph/batch.h"
#include "src/graph/graph.h"
#include "src/tensor/backend.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_plan.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace oodgnn {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

Tensor RandomTensor(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::RandomNormal(rows, cols, &rng);
  // A sprinkle of exact zeros exercises the matmul zero-skip fast path.
  for (int i = 0; i < t.size(); i += 7) t[i] = 0.f;
  return t;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

/// Runs `op` (which must produce its result into a fresh Tensor) under
/// every thread count and asserts all results are bitwise identical to
/// the serial one and AllClose to `reference`.
void ExpectDeterministic(const std::function<Tensor()>& op,
                         const Tensor& reference, float tol = 1e-4f) {
  Tensor serial;
  {
    ScopedBackendThreads scoped(1);
    serial = op();
  }
  EXPECT_TRUE(AllClose(serial, reference, tol));
  for (int threads : kThreadCounts) {
    ScopedBackendThreads scoped(threads);
    Tensor got = op();
    EXPECT_TRUE(BitwiseEqual(serial, got))
        << "backend with " << threads << " threads diverged bitwise";
  }
}

/// Runs `op` under every thread count and asserts each result is
/// bitwise identical to `reference`, a naive loop in the test.
void ExpectBitwiseAcrossThreads(const std::function<Tensor()>& op,
                                const Tensor& reference) {
  for (int threads : kThreadCounts) {
    ScopedBackendThreads scoped(threads);
    EXPECT_TRUE(BitwiseEqual(op(), reference))
        << "diverged from the naive loop at " << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Naive message-passing references. Every gather/scatter/segment kernel
// must reproduce these loops bit for bit: they visit rows in ascending
// original order, and sums accumulate into zeroed outputs.
// ---------------------------------------------------------------------------

std::vector<int> RandomIndex(size_t count, int num_segments, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> index(count);
  for (int& v : index) {
    v = static_cast<int>(rng.UniformInt(0, num_segments - 1));
  }
  return index;
}

/// out[i,:] = a[index[i],:].
Tensor NaiveGather(const Tensor& a, const std::vector<int>& index) {
  Tensor out(static_cast<int>(index.size()), a.cols());
  for (size_t i = 0; i < index.size(); ++i) {
    for (int c = 0; c < a.cols(); ++c) {
      out.at(static_cast<int>(i), c) = a.at(index[i], c);
    }
  }
  return out;
}

/// out[index[r],:] += a[r,:] for ascending r, into `rows` zero rows.
Tensor NaiveScatterAdd(const Tensor& a, const std::vector<int>& index,
                       int rows) {
  Tensor out(rows, a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      out.at(index[static_cast<size_t>(r)], c) += a.at(r, c);
    }
  }
  return out;
}

/// Per-segment column-wise max (is_max) or min over ascending rows:
/// the first row wins ties, empty segments give zero rows, and
/// (*argrow)[s·cols + c] records the supplying row (-1 when empty).
Tensor NaiveSegmentExtreme(const Tensor& a, const std::vector<int>& segment,
                           int num_segments, bool is_max,
                           std::vector<int>* argrow) {
  Tensor out(num_segments, a.cols());
  argrow->assign(static_cast<size_t>(num_segments) * a.cols(), -1);
  for (int r = 0; r < a.rows(); ++r) {
    const int s = segment[static_cast<size_t>(r)];
    for (int c = 0; c < a.cols(); ++c) {
      const size_t cell = static_cast<size_t>(s) * a.cols() + c;
      const bool better =
          (*argrow)[cell] < 0 ||
          (is_max ? a.at(r, c) > out.at(s, c) : a.at(r, c) < out.at(s, c));
      if (better) {
        out.at(s, c) = a.at(r, c);
        (*argrow)[cell] = r;
      }
    }
  }
  return out;
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(103, 0);
  pool.ParallelFor(103, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::vector<int> hits(64, 0);
  pool.ParallelFor(8, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      // Nested use from a worker (or from the caller's chunk) must not
      // deadlock; it runs the inner range inline.
      pool.ParallelFor(8, [&](int b2, int e2) {
        for (int j = b2; j < e2; ++j) ++hits[static_cast<size_t>(i * 8 + j)];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, StaticChunksAreContiguousAndComplete) {
  const auto [b0, e0] = ThreadPool::Chunk(10, 3, 0);
  const auto [b1, e1] = ThreadPool::Chunk(10, 3, 1);
  const auto [b2, e2] = ThreadPool::Chunk(10, 3, 2);
  EXPECT_EQ(b0, 0);
  EXPECT_EQ(e0, b1);
  EXPECT_EQ(e1, b2);
  EXPECT_EQ(e2, 10);
}

/// RandomTensor with about `zero_pct` percent of its elements set to
/// exact zeros at random positions, like post-ReLU activations.
Tensor SparseTensor(int rows, int cols, int zero_pct, uint64_t seed) {
  Tensor t = RandomTensor(rows, cols, seed);
  Rng rng(seed + 1);
  for (int i = 0; i < t.size(); ++i) {
    if (rng.Uniform() * 100.0 < zero_pct) t[i] = 0.f;
  }
  return t;
}

/// A matmul test case: m, k, n name the operands of a·b ([m×k]·[k×n]),
/// aᵀ·b ([m×k]ᵀ·[m×n]) and a·bᵀ ([m×k]·[n×k]ᵀ); zero_pct adds exact
/// zeros to a, and one_hot makes each row of a a single 1.
struct MatMulCase {
  int m, k, n;
  int zero_pct = 0;
  bool one_hot = false;
};

/// Each test's original small shape plus model shapes past the
/// parallel cutoff: the encoder's Linear over post-ReLU input (full
/// 64-column tiles, a 4-row a·bᵀ remainder, three aᵀ·b row blocks), a
/// wide one (vector and scalar column remainders), the one-hot first
/// layer, half-zero input with a row count off the 4-row tile, a long
/// contraction into a narrow head and a 3-term contraction.
std::vector<MatMulCase> MatMulCases(MatMulCase original) {
  return {original,           {131, 64, 64, 35},   {70, 130, 150},
          {301, 17, 64, 0, true}, {263, 128, 80, 50}, {97, 300, 10},
          {150, 3, 32}};
}

/// The a operand of `c`.
Tensor MatMulCoefs(const MatMulCase& c, uint64_t seed) {
  if (!c.one_hot) return SparseTensor(c.m, c.k, c.zero_pct, seed);
  Tensor a(c.m, c.k);
  Rng rng(seed);
  for (int r = 0; r < c.m; ++r) {
    a.at(r, static_cast<int>(rng.UniformInt(0, c.k - 1))) = 1.f;
  }
  return a;
}

TEST(KernelsTest, MatMulMatchesNaiveBitwiseAcrossThreads) {
  for (const MatMulCase& c : MatMulCases({37, 29, 43})) {
    SCOPED_TRACE(std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                 std::to_string(c.n));
    const Tensor a = MatMulCoefs(c, 1);
    const Tensor b = RandomTensor(c.k, c.n, 2);
    // Naive ikj reference with ascending-k accumulation per output cell —
    // the same per-element order the blocked kernel commits to.
    Tensor reference(a.rows(), b.cols());
    for (int i = 0; i < a.rows(); ++i) {
      for (int p = 0; p < a.cols(); ++p) {
        for (int j = 0; j < b.cols(); ++j) {
          reference.at(i, j) += a.at(i, p) * b.at(p, j);
        }
      }
    }
    ExpectDeterministic(
        [&] {
          // The forward MatMul's entry: an empty tail into a NaN
          // sentinel, so an element the kernel never writes shows up.
          Tensor out(a.rows(), b.cols(),
                     std::numeric_limits<float>::quiet_NaN());
          GetBackend().MatMulWithTail(a, b, kernels::MatMulTail{}, &out);
          return out;
        },
        reference);
  }
}

TEST(KernelsTest, MatMulTransAMatchesNaiveBitwiseAcrossThreads) {
  for (const MatMulCase& c : MatMulCases({31, 17, 23})) {
    SCOPED_TRACE(std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                 std::to_string(c.n));
    const Tensor a = MatMulCoefs(c, 3);
    const Tensor b = RandomTensor(c.m, c.n, 4);
    Tensor reference(a.cols(), b.cols());
    for (int i = 0; i < a.rows(); ++i) {
      for (int p = 0; p < a.cols(); ++p) {
        for (int j = 0; j < b.cols(); ++j) {
          reference.at(p, j) += a.at(i, p) * b.at(i, j);
        }
      }
    }
    ExpectDeterministic(
        [&] {
          Tensor out(a.cols(), b.cols());
          GetBackend().MatMulTransAAcc(a, b, &out);
          return out;
        },
        reference);
  }
}

TEST(KernelsTest, MatMulTransBMatchesNaiveBitwiseAcrossThreads) {
  for (const MatMulCase& c : MatMulCases({19, 41, 27})) {
    SCOPED_TRACE(std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                 std::to_string(c.n));
    const Tensor a = MatMulCoefs(c, 5);
    const Tensor b = RandomTensor(c.n, c.k, 6);
    Tensor reference(a.rows(), b.rows());
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < b.rows(); ++j) {
        float acc = 0.f;
        for (int p = 0; p < a.cols(); ++p) acc += a.at(i, p) * b.at(j, p);
        reference.at(i, j) = acc;
      }
    }
    ExpectDeterministic(
        [&] {
          Tensor out(a.rows(), b.rows());
          GetBackend().MatMulTransBAcc(a, b, &out);
          return out;
        },
        reference);
  }
}

TEST(KernelsTest, MatMulWithTailMatchesCompositeBitwiseAcrossThreads) {
  // 301 rows put every width past the parallel cutoff; K = 300 crosses
  // the SIMD body's 256-row contraction block.
  const int m = 301;
  for (int k : {64, 300}) {
    const Tensor a = SparseTensor(m, k, 35, 40 + static_cast<uint64_t>(k));
    for (int n : {1, 7, 8, 63, 64, 65, 130}) {
      const Tensor b = RandomTensor(k, n, 41 + static_cast<uint64_t>(n));
      test::TailRows rows;
      rows.bias = RandomTensor(1, n, 42);
      rows.neg_mean = RandomTensor(1, n, 43);
      rows.std_dev = test::PositiveRow(n, 44);
      rows.gamma = RandomTensor(1, n, 45);
      rows.beta = RandomTensor(1, n, 46);
      const std::vector<kernels::MatMulTail> tails = test::ModelTails(rows);
      for (size_t t = 0; t < tails.size(); ++t) {
        SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n) +
                     " tail " + std::to_string(t));
        Tensor reference;
        {
          ScopedBackendThreads serial(1);
          reference = test::CompositeTail(a, b, tails[t], rows);
        }
        ExpectBitwiseAcrossThreads(
            [&] {
              // A NaN sentinel: an element the kernel never writes
              // cannot match the reference, which has no NaN.
              Tensor out(m, n, std::numeric_limits<float>::quiet_NaN());
              GetBackend().MatMulWithTail(a, b, tails[t], &out);
              return out;
            },
            reference);
      }
    }
  }
}

TEST(KernelsTest, ElementwiseKernelsAcrossThreads) {
  const Tensor x = RandomTensor(23, 31, 7);
  const Tensor g = RandomTensor(23, 31, 8);
  ExpectDeterministic(
      [&] {
        Tensor y = x;
        GetBackend().Axpy(2.5f, g, &y);
        GetBackend().ScaleInPlace(0.5f, &y);
        GetBackend().AddScalarAcc(-1.f, &y);
        Tensor out(x.rows(), x.cols());
        GetBackend().Hadamard(y, g, &out);
        GetBackend().HadamardAcc(x, g, &out);
        return out;
      },
      [&] {
        Tensor y = x;
        for (int i = 0; i < y.size(); ++i) {
          y[i] = (y[i] + 2.5f * g[i]) * 0.5f - 1.f;
        }
        Tensor out(x.rows(), x.cols());
        for (int i = 0; i < out.size(); ++i) out[i] = y[i] * g[i] + x[i] * g[i];
        return out;
      }());
}

TEST(KernelsTest, ReluAndSquareBackwardAcrossThreads) {
  // 131×257 is past the parallel cutoff: 2 and 8 threads split it.
  const Tensor x = RandomTensor(131, 257, 20);
  const Tensor g = RandomTensor(131, 257, 21);
  ExpectDeterministic(
      [&] {
        Tensor out(x.rows(), x.cols());
        GetBackend().Relu(x, &out);
        return out;
      },
      [&] {
        Tensor out(x.rows(), x.cols());
        for (int i = 0; i < x.size(); ++i) out[i] = x[i] > 0.f ? x[i] : 0.f;
        return out;
      }(),
      0.f);
  ExpectDeterministic(
      [&] {
        Tensor dx = g;
        GetBackend().ReluBackwardAcc(g, x, &dx);
        GetBackend().SquareBackwardAcc(g, x, &dx);
        return dx;
      },
      [&] {
        Tensor dx = g;
        for (int i = 0; i < x.size(); ++i) {
          dx[i] += x[i] > 0.f ? g[i] : 0.f;
          dx[i] += g[i] * (2.f * x[i]);
        }
        return dx;
      }(),
      0.f);
}

TEST(KernelsTest, RowAndColVecBroadcastsAcrossThreads) {
  const Tensor a = RandomTensor(131, 257, 22);
  const Tensor g = RandomTensor(131, 257, 23);
  const Tensor col = RandomTensor(131, 1, 25);
  // Reference: out = a · broadcast col; with acc, out = g + a · col.
  const auto reference = [&](bool acc) {
    Tensor out = acc ? g : Tensor(a.rows(), a.cols());
    for (int r = 0; r < a.rows(); ++r) {
      for (int c = 0; c < a.cols(); ++c) {
        out.at(r, c) += a.at(r, c) * col.at(r, 0);
      }
    }
    return out;
  };
  ExpectDeterministic(
      [&] {
        Tensor out(a.rows(), a.cols());
        GetBackend().MulColVec(a, col, &out);
        return out;
      },
      reference(false), 0.f);
  ExpectDeterministic(
      [&] {
        Tensor out = g;
        GetBackend().MulColVecAcc(a, col, &out);
        return out;
      },
      reference(true), 0.f);
}

TEST(KernelsTest, BatchNormKernelsAcrossThreads) {
  // The BatchNorm node's entry points against naive loops at 1, 2 and 8
  // threads, with ReLU on and off. 1031 rows (a mean TRIANGLES batch)
  // put every width past the parallel cutoff; 130 columns leave the
  // column ranges a partial vector.
  const int m = 1031;
  for (int n : {1, 17, 64, 130}) {
    const Tensor x = RandomTensor(m, n, 50);
    const Tensor g = RandomTensor(m, n, 51);
    const Tensor dx0 = RandomTensor(m, n, 52);
    const Tensor neg_mean = RandomTensor(1, n, 53);
    const Tensor std_dev = test::PositiveRow(n, 54);
    const Tensor gamma = RandomTensor(1, n, 55);
    const Tensor beta = RandomTensor(1, n, 56);
    const Tensor dsq = RandomTensor(1, n, 57);
    for (bool relu : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + (relu ? " relu" : ""));
      kernels::MatMulTail tail;
      tail.neg_mean = neg_mean.data();
      tail.std_dev = std_dev.data();
      tail.gamma = gamma.data();
      tail.beta = beta.data();
      tail.relu = relu;
      // The store, and the naive per-element terms of the backward.
      Tensor y(m, n);
      Tensor square_sum(1, n);
      Tensor sums(3, n);  // dγ, dβ, Σ dn·x̂
      Tensor dx = dx0;
      Tensor dx_fresh(m, n);
      Tensor dx_sum(1, n);
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
          const float t = x.at(r, c) + neg_mean[c];
          const float xhat = t / std_dev[c];
          float v = xhat * gamma[c] + beta[c];
          if (relu) v = v > 0.f ? v : 0.f;
          y.at(r, c) = v;
          square_sum[c] += t * t;
        }
      }
      for (int r = 0; r < m; ++r) {
        for (int c = 0; c < n; ++c) {
          const float t = x.at(r, c) + neg_mean[c];
          const float xhat = t / std_dev[c];
          const float dy =
              relu ? 0.f + g.at(r, c) * (y.at(r, c) > 0.f ? 1.f : 0.f)
                   : g.at(r, c);
          const float dn = 0.f + dy * gamma[c];
          sums.at(0, c) += dy * xhat;
          sums.at(1, c) += dy;
          sums.at(2, c) += dn * xhat;
          const float dc = (0.f + dn / std_dev[c]) + dsq[c] * (2.f * t);
          dx.at(r, c) += dc;
          dx_fresh.at(r, c) = dc;
          dx_sum[c] += dc;
        }
      }
      ExpectBitwiseAcrossThreads(
          [&] {
            Tensor out(m, n, std::numeric_limits<float>::quiet_NaN());
            GetBackend().BatchNorm(tail, x, &out);
            return out;
          },
          y);
      ExpectBitwiseAcrossThreads(
          [&] {
            Tensor out(1, n);
            GetBackend().CenteredSquareSumAcc(x, neg_mean, &out);
            return out;
          },
          square_sum);
      ExpectBitwiseAcrossThreads(
          [&] {
            Tensor dgamma(1, n);
            Tensor dbeta(1, n);
            Tensor dn_xhat(1, n);
            GetBackend().BatchNormGradSumsAcc(g, y, x, tail, &dgamma, &dbeta,
                                              &dn_xhat);
            Tensor out(3, n);
            kernels::CopyRowsTo(dgamma, &out, 0, 0, 1);
            kernels::CopyRowsTo(dbeta, &out, 1, 0, 1);
            kernels::CopyRowsTo(dn_xhat, &out, 2, 0, 1);
            return out;
          },
          sums);
      ExpectBitwiseAcrossThreads(
          [&] {
            Tensor out = dx0;
            Tensor sum(1, n);
            GetBackend().BatchNormGradX(g, y, x, tail, &dsq,
                                        /*accumulate=*/true, &out, &sum);
            Tensor fresh(m, n, std::numeric_limits<float>::quiet_NaN());
            GetBackend().BatchNormGradX(g, y, x, tail, &dsq,
                                        /*accumulate=*/false, &fresh, nullptr);
            Tensor packed(2 * m + 1, n);
            kernels::CopyRowsTo(out, &packed, 0, 0, m);
            kernels::CopyRowsTo(fresh, &packed, m, 0, m);
            kernels::CopyRowsTo(sum, &packed, 2 * m, 0, 1);
            return packed;
          },
          [&] {
            Tensor packed(2 * m + 1, n);
            kernels::CopyRowsTo(dx, &packed, 0, 0, m);
            kernels::CopyRowsTo(dx_fresh, &packed, m, 0, m);
            kernels::CopyRowsTo(dx_sum, &packed, 2 * m, 0, 1);
            return packed;
          }());
    }
  }
}

TEST(KernelsTest, ReductionsAndBroadcastsAcrossThreads) {
  const Tensor a = RandomTensor(29, 37, 9);
  Tensor colsum_ref(1, a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) colsum_ref.at(0, c) += a.at(r, c);
  }
  ExpectDeterministic(
      [&] {
        Tensor out(1, a.cols());
        GetBackend().ColumnSumAcc(a, &out);
        return out;
      },
      colsum_ref);
  ExpectDeterministic(
      [&] {
        Tensor out = a;
        GetBackend().RowBroadcastAcc(colsum_ref, &out);
        return out;
      },
      [&] {
        Tensor out(a.rows(), a.cols());
        for (int r = 0; r < a.rows(); ++r) {
          for (int c = 0; c < a.cols(); ++c) {
            out.at(r, c) = colsum_ref.at(0, c) + a.at(r, c);
          }
        }
        return out;
      }());
}

TEST(KernelsTest, WeightedReductionsAcrossThreads) {
  const Tensor x = RandomTensor(21, 33, 10);
  const Tensor y = RandomTensor(21, 33, 11);
  Tensor row_ref(x.rows(), 1);
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      row_ref.at(r, 0) += x.at(r, c) * y.at(r, c);
    }
  }
  ExpectDeterministic(
      [&] {
        Tensor out(x.rows(), 1);
        GetBackend().HadamardRowSumAcc(x, y, &out);
        return out;
      },
      row_ref);
}

TEST(KernelsTest, GatherScatterSegmentAcrossThreads) {
  const int nodes = 41;
  const int dim = 19;
  const Tensor h = RandomTensor(nodes, dim, 15);
  const std::vector<int> index = RandomIndex(97, nodes, 14);
  const SegmentPlan plan = SegmentPlan::Build(index, nodes);
  // Gather.
  const Tensor gather_ref = NaiveGather(h, index);
  ExpectBitwiseAcrossThreads(
      [&] {
        Tensor out(static_cast<int>(index.size()), dim);
        GetBackend().GatherRows(h, index, &out);
        return out;
      },
      gather_ref);
  // Scatter-add (segment sum) and its adjoint.
  const Tensor scatter_ref = NaiveScatterAdd(gather_ref, index, nodes);
  ExpectBitwiseAcrossThreads(
      [&] {
        Tensor out(nodes, dim);
        GetBackend().ScatterAddRowsPlanned(gather_ref, plan, &out);
        return out;
      },
      scatter_ref);
  ExpectBitwiseAcrossThreads(
      [&] {
        Tensor out(static_cast<int>(index.size()), dim);
        GetBackend().GatherRowsAcc(scatter_ref, index, &out);
        return out;
      },
      NaiveGather(scatter_ref, index));
}

TEST(KernelsTest, SegmentExtremeAcrossThreads) {
  const int rows = 53;
  const int dim = 11;
  const int num_segments = 9;
  const Tensor a = RandomTensor(rows, dim, 17);
  // Segment 8 stays empty, exercising the zero fill.
  const std::vector<int> segment = RandomIndex(rows, num_segments - 1, 16);
  const SegmentPlan plan = SegmentPlan::Build(segment, num_segments);
  for (bool is_max : {true, false}) {
    std::vector<int> arg_ref;
    const Tensor ref =
        NaiveSegmentExtreme(a, segment, num_segments, is_max, &arg_ref);
    ExpectBitwiseAcrossThreads(
        [&] {
          Tensor out(num_segments, dim);
          std::vector<int> arg(static_cast<size_t>(num_segments) * dim, -1);
          GetBackend().SegmentExtremePlanned(a, plan, is_max, &out, &arg);
          EXPECT_EQ(arg, arg_ref);
          return out;
        },
        ref);
    // Backward routes each upstream cell to its recorded argmax row.
    const Tensor g = RandomTensor(num_segments, dim, 18);
    ExpectDeterministic(
        [&] {
          Tensor out(rows, dim);
          GetBackend().SegmentExtremeBackwardAcc(g, arg_ref, &out);
          return out;
        },
        [&] {
          Tensor out(rows, dim);
          for (int s = 0; s < num_segments; ++s) {
            for (int c = 0; c < dim; ++c) {
              const int r = arg_ref[static_cast<size_t>(s) * dim + c];
              if (r >= 0) out.at(r, c) += g.at(s, c);
            }
          }
          return out;
        }());
  }
}

TEST(KernelsTest, CopyRowsToAcrossThreads) {
  const Tensor src = RandomTensor(17, 21, 19);
  ExpectDeterministic(
      [&] {
        Tensor dst(40, 21);
        GetBackend().CopyRowsTo(src, &dst, 5);
        return dst;
      },
      [&] {
        Tensor dst(40, 21);
        for (int r = 0; r < src.rows(); ++r) {
          for (int c = 0; c < src.cols(); ++c) {
            dst.at(5 + r, c) = src.at(r, c);
          }
        }
        return dst;
      }());
}

// ---------------------------------------------------------------------------
// Backward determinism through the autograd layer.
// ---------------------------------------------------------------------------

/// A message-passing-shaped composite: gather → matmul → relu → scatter
/// → mean of squares. Exercises every hot backward kernel.
Variable CompositeLoss(const Variable& h, const Variable& w,
                       const MessagePlanPtr& plan) {
  Variable messages = RowGather(h, BySrc(plan));
  Variable mixed = Relu(MatMul(messages, w));
  Variable aggregated = ScatterAddRows(mixed, ByDst(plan));
  return MeanAll(Square(aggregated));
}

TEST(KernelsTest, GradcheckPassesUnderParallelBackend) {
  ScopedBackendThreads scoped(8);
  Rng rng(20);
  const int nodes = 12;
  const int dim = 6;
  Variable h = Variable::Param(Tensor::RandomNormal(nodes, dim, &rng));
  Variable w = Variable::Param(Tensor::RandomNormal(dim, dim, &rng));
  std::vector<int> src(30);
  std::vector<int> dst(30);
  for (size_t e = 0; e < src.size(); ++e) {
    src[e] = static_cast<int>(rng.UniformInt(0, nodes - 1));
    dst[e] = static_cast<int>(rng.UniformInt(0, nodes - 1));
  }
  const auto plan =
      std::make_shared<const MessagePlan>(MessagePlan::Build(src, dst, nodes));
  GradCheckResult result =
      CheckGradients({h, w}, [&] { return CompositeLoss(h, w, plan); });
  EXPECT_LT(result.max_relative_error, 5e-2)
      << "worst leaf " << result.worst_leaf << " element "
      << result.worst_element;
}

TEST(KernelsTest, BackwardGradientsBitwiseIdenticalAcrossThreads) {
  Rng rng(21);
  const int nodes = 40;
  const int dim = 24;
  const Tensor h0 = Tensor::RandomNormal(nodes, dim, &rng);
  const Tensor w0 = Tensor::RandomNormal(dim, dim, &rng);
  std::vector<int> src(160);
  std::vector<int> dst(160);
  for (size_t e = 0; e < src.size(); ++e) {
    src[e] = static_cast<int>(rng.UniformInt(0, nodes - 1));
    dst[e] = static_cast<int>(rng.UniformInt(0, nodes - 1));
  }
  const auto plan =
      std::make_shared<const MessagePlan>(MessagePlan::Build(src, dst, nodes));
  auto run = [&](int threads) {
    ScopedBackendThreads scoped(threads);
    Variable h = Variable::Param(h0);
    Variable w = Variable::Param(w0);
    Variable loss = CompositeLoss(h, w, plan);
    loss.Backward();
    return std::make_pair(h.grad(), w.grad());
  };
  const auto [h_serial, w_serial] = run(1);
  for (int threads : kThreadCounts) {
    const auto [h_grad, w_grad] = run(threads);
    EXPECT_TRUE(BitwiseEqual(h_serial, h_grad))
        << "h grad diverged at " << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(w_serial, w_grad))
        << "w grad diverged at " << threads << " threads";
  }
}

// A UnaryOp (Sigmoid here), ConcatCols and ConcatRows write their
// parents' gradients inside a parallel range. Each parent below is an
// interior node that only that closure reads, so the closure is where
// its buffer is first requested; that request must happen on the
// calling thread, before the range starts. Every part is past the
// parallel cutoff.
TEST(KernelsTest, RangedBackwardClosuresBitwiseIdenticalAcrossThreads) {
  const Tensor a0 = RandomTensor(512, 64, 40);
  const Tensor b0 = RandomTensor(512, 64, 41);
  auto run = [&](int threads) {
    ScopedBackendThreads scoped(threads);
    Variable a = Variable::Param(a0);
    Variable b = Variable::Param(b0);
    Variable cols = ConcatCols({Sigmoid(Scale(a, 0.5f)), Scale(b, -2.f)});
    Variable rows = ConcatRows({Scale(a, 3.f), Scale(b, 0.25f)});
    Add(Sum(Square(cols)), Sum(Square(rows))).Backward();
    return std::make_pair(a.grad(), b.grad());
  };
  const auto [a_serial, b_serial] = run(1);
  const auto [a_grad, b_grad] = run(4);
  EXPECT_TRUE(BitwiseEqual(a_serial, a_grad)) << "a grad diverged";
  EXPECT_TRUE(BitwiseEqual(b_serial, b_grad)) << "b grad diverged";
}

// ---------------------------------------------------------------------------
// CSR segment plans.
// ---------------------------------------------------------------------------

TEST(SegmentPlanTest, BuildMatchesStableSort) {
  for (uint64_t seed : {30u, 31u, 32u}) {
    const int num_segments = 13;
    const std::vector<int> items = RandomIndex(71, num_segments, seed);
    const SegmentPlan plan = SegmentPlan::Build(items, num_segments);
    ASSERT_EQ(plan.num_items(), 71);
    ASSERT_EQ(plan.num_segments, num_segments);
    EXPECT_EQ(plan.items, items);
    // perm must be the stable sort of positions by segment.
    std::vector<int> expected(items.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      expected[i] = static_cast<int>(i);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [&](int a, int b) {
                       return items[static_cast<size_t>(a)] <
                              items[static_cast<size_t>(b)];
                     });
    EXPECT_EQ(plan.perm, expected);
    // offsets delimit each segment's run.
    ASSERT_EQ(plan.offsets.size(), static_cast<size_t>(num_segments) + 1);
    const std::vector<int> counts = plan.SegmentCounts();
    for (int s = 0; s < num_segments; ++s) {
      EXPECT_EQ(plan.offsets[static_cast<size_t>(s) + 1] -
                    plan.offsets[static_cast<size_t>(s)],
                counts[static_cast<size_t>(s)]);
      for (int j = plan.offsets[static_cast<size_t>(s)];
           j < plan.offsets[static_cast<size_t>(s) + 1]; ++j) {
        EXPECT_EQ(items[static_cast<size_t>(
                      plan.perm[static_cast<size_t>(j)])],
                  s);
      }
    }
  }
}

TEST(SegmentPlanTest, HandlesEmptyAndDegenerateInputs) {
  const SegmentPlan empty = SegmentPlan::Build({}, 5);
  EXPECT_EQ(empty.num_items(), 0);
  EXPECT_EQ(empty.offsets, std::vector<int>({0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(empty.SegmentCounts(), std::vector<int>({0, 0, 0, 0, 0}));

  const SegmentPlan none = SegmentPlan::Build({}, 0);
  EXPECT_EQ(none.num_segments, 0);
  EXPECT_EQ(none.offsets, std::vector<int>({0}));

  const SegmentPlan single = SegmentPlan::Build({2, 2, 2}, 3);
  EXPECT_EQ(single.offsets, std::vector<int>({0, 0, 0, 3}));
  EXPECT_EQ(single.perm, std::vector<int>({0, 1, 2}));
}

TEST(KernelsTest, PlannedScatterMatchesNaiveBitwiseAcrossThreads) {
  const int nodes = 37;
  const int dim = 17;
  const Tensor a = RandomTensor(211, dim, 33);
  const std::vector<int> index = RandomIndex(211, nodes, 34);
  const SegmentPlan plan = SegmentPlan::Build(index, nodes);
  ExpectBitwiseAcrossThreads(
      [&] {
        Tensor out(nodes, dim);
        GetBackend().ScatterAddRowsPlanned(a, plan, &out);
        return out;
      },
      NaiveScatterAdd(a, index, nodes));
}

TEST(KernelsTest, FusedGatherScatterMatchesComposedBitwiseAcrossThreads) {
  const int nodes = 29;
  const int dim = 13;
  const Tensor h = RandomTensor(nodes, dim, 35);
  const Tensor w = RandomTensor(173, 1, 36);
  const std::vector<int> src = RandomIndex(173, nodes, 37);
  const std::vector<int> dst = RandomIndex(173, nodes, 38);
  const MessagePlan plan = MessagePlan::Build(src, dst, nodes);

  Tensor gathered(static_cast<int>(src.size()), dim);
  {
    ScopedBackendThreads scoped(1);
    GetBackend().GatherRows(h, src, &gathered);
  }
  Tensor sum_ref(nodes, dim);
  Tensor weighted_ref(nodes, dim);
  Tensor dot_ref(static_cast<int>(src.size()), 1);
  for (size_t e = 0; e < src.size(); ++e) {
    for (int c = 0; c < dim; ++c) {
      sum_ref.at(dst[e], c) += gathered.at(static_cast<int>(e), c);
      weighted_ref.at(dst[e], c) +=
          gathered.at(static_cast<int>(e), c) * w.at(static_cast<int>(e), 0);
      dot_ref.at(static_cast<int>(e), 0) +=
          gathered.at(static_cast<int>(e), c) * h.at(dst[e], c);
    }
  }
  ExpectDeterministic(
      [&] {
        Tensor out(nodes, dim);
        GetBackend().GatherScatterAcc(h, plan.src_by_dst, plan.by_dst, &out);
        return out;
      },
      sum_ref);
  ExpectDeterministic(
      [&] {
        Tensor out(nodes, dim);
        GetBackend().GatherScatterWeightedAcc(h, w, plan.src_by_dst,
                                              plan.by_dst, &out);
        return out;
      },
      weighted_ref);
  ExpectDeterministic(
      [&] {
        Tensor out(static_cast<int>(src.size()), 1);
        GetBackend().EdgeDotAcc(h, h, src, dst, &out);
        return out;
      },
      dot_ref);
}

TEST(KernelsTest, SegmentExtremePlannedMatchesUnplannedAcrossThreads) {
  const int num_segments = 11;
  const int dim = 7;
  const Tensor a = RandomTensor(83, dim, 39);
  // Leave segment 10 empty to exercise the zero-fill path.
  const std::vector<int> segment = RandomIndex(83, num_segments - 1, 40);
  const SegmentPlan plan = SegmentPlan::Build(segment, num_segments);
  for (bool is_max : {true, false}) {
    // Unplanned reference: a full scan of the rows in ascending order.
    std::vector<int> arg_ref;
    const Tensor ref =
        NaiveSegmentExtreme(a, segment, num_segments, is_max, &arg_ref);
    ExpectBitwiseAcrossThreads(
        [&] {
          Tensor out(num_segments, dim);
          std::vector<int> arg(static_cast<size_t>(num_segments) * dim, -1);
          GetBackend().SegmentExtremePlanned(a, plan, is_max, &out, &arg);
          EXPECT_EQ(arg, arg_ref);
          return out;
        },
        ref);
  }
}

// ---------------------------------------------------------------------------
// Planned autograd ops: values and input gradients bitwise identical to
// naive loops at every thread count.
// ---------------------------------------------------------------------------

struct ForwardBackward {
  Tensor value;
  std::vector<Tensor> grads;
};

/// Runs `build` on freshly re-created Params, back-propagates the fixed
/// upstream gradient `upstream` (loss = Σ out ⊙ upstream), and returns
/// the output value plus every leaf gradient.
ForwardBackward RunTaped(
    const std::vector<Tensor>& leaves, const Tensor& upstream,
    const std::function<Variable(const std::vector<Variable>&)>& build) {
  std::vector<Variable> params;
  params.reserve(leaves.size());
  for (const Tensor& t : leaves) params.push_back(Variable::Param(t));
  Variable out = build(params);
  Sum(Mul(out, Variable::Constant(upstream))).Backward();
  ForwardBackward result;
  result.value = out.value();
  for (const Variable& p : params) result.grads.push_back(p.grad());
  return result;
}

void ExpectOpMatchesNaive(
    const std::vector<Tensor>& leaves, const Tensor& upstream,
    const std::function<Variable(const std::vector<Variable>&)>& op,
    const ForwardBackward& naive, const char* what) {
  for (int threads : kThreadCounts) {
    ScopedBackendThreads scoped(threads);
    const ForwardBackward got = RunTaped(leaves, upstream, op);
    EXPECT_TRUE(BitwiseEqual(naive.value, got.value))
        << what << " value diverged at " << threads << " threads";
    for (size_t i = 0; i < leaves.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(naive.grads[i], got.grads[i]))
          << what << " grad " << i << " diverged at " << threads
          << " threads";
    }
  }
}

TEST(PlannedOpsTest, MatchUnplannedOpsBitwise) {
  const int nodes = 23;
  const int dim = 9;
  const int edges = 131;
  const Tensor h0 = RandomTensor(nodes, dim, 41);
  const Tensor e0 = RandomTensor(edges, dim, 42);
  const Tensor w0 = RandomTensor(edges, 1, 43);
  const std::vector<int> src = RandomIndex(edges, nodes, 44);
  const std::vector<int> dst = RandomIndex(edges, nodes, 45);
  const auto plan =
      std::make_shared<const MessagePlan>(MessagePlan::Build(src, dst, nodes));
  const SegmentPlanPtr by_src = BySrc(plan);
  const SegmentPlanPtr by_dst = ByDst(plan);
  // Upstream gradients of [E, d] and [N, d] outputs.
  const Tensor g_edges = RandomTensor(edges, dim, 46);
  const Tensor g_nodes = RandomTensor(nodes, dim, 47);

  ExpectOpMatchesNaive(
      {h0}, g_edges,
      [&](const std::vector<Variable>& p) { return RowGather(p[0], by_src); },
      {NaiveGather(h0, src), {NaiveScatterAdd(g_edges, src, nodes)}},
      "RowGather");
  ExpectOpMatchesNaive(
      {e0}, g_nodes,
      [&](const std::vector<Variable>& p) {
        return ScatterAddRows(p[0], by_dst);
      },
      {NaiveScatterAdd(e0, dst, nodes), {NaiveGather(g_nodes, dst)}},
      "ScatterAddRows");

  {
    std::vector<int> count(static_cast<size_t>(nodes), 0);
    for (int v : dst) ++count[static_cast<size_t>(v)];
    Tensor mean = NaiveScatterAdd(e0, dst, nodes);
    for (int v = 0; v < nodes; ++v) {
      const int n = count[static_cast<size_t>(v)];
      const float inv = n > 0 ? 1.f / static_cast<float>(n) : 0.f;
      for (int c = 0; c < dim; ++c) mean.at(v, c) *= inv;
    }
    Tensor grad(edges, dim);
    for (int e = 0; e < edges; ++e) {
      const int v = dst[static_cast<size_t>(e)];
      const float inv =
          1.f / static_cast<float>(count[static_cast<size_t>(v)]);
      for (int c = 0; c < dim; ++c) grad.at(e, c) += g_nodes.at(v, c) * inv;
    }
    ExpectOpMatchesNaive(
        {e0}, g_nodes,
        [&](const std::vector<Variable>& p) {
          return SegmentMean(p[0], by_dst);
        },
        {mean, {grad}}, "SegmentMean");
  }

  for (bool is_max : {true, false}) {
    std::vector<int> argrow;
    const Tensor extreme =
        NaiveSegmentExtreme(e0, dst, nodes, is_max, &argrow);
    Tensor grad(edges, dim);
    for (int v = 0; v < nodes; ++v) {
      for (int c = 0; c < dim; ++c) {
        const int r = argrow[static_cast<size_t>(v) * dim + c];
        if (r >= 0) grad.at(r, c) += g_nodes.at(v, c);
      }
    }
    ExpectOpMatchesNaive(
        {e0}, g_nodes,
        [&](const std::vector<Variable>& p) {
          return is_max ? SegmentMax(p[0], by_dst) : SegmentMin(p[0], by_dst);
        },
        {extreme, {grad}}, is_max ? "SegmentMax" : "SegmentMin");
  }

  ExpectOpMatchesNaive(
      {h0}, g_nodes,
      [&](const std::vector<Variable>& p) { return GatherScatter(p[0], plan); },
      {NaiveScatterAdd(NaiveGather(h0, src), dst, nodes),
       {NaiveScatterAdd(NaiveGather(g_nodes, dst), src, nodes)}},
      "GatherScatter");

  {
    Tensor weighted(nodes, dim);
    Tensor grad_h(nodes, dim);
    Tensor grad_w(edges, 1);
    for (int e = 0; e < edges; ++e) {
      const int u = src[static_cast<size_t>(e)];
      const int v = dst[static_cast<size_t>(e)];
      const float w = w0.at(e, 0);
      float dot = 0.f;
      for (int c = 0; c < dim; ++c) {
        weighted.at(v, c) += h0.at(u, c) * w;
        grad_h.at(u, c) += g_nodes.at(v, c) * w;
        dot += g_nodes.at(v, c) * h0.at(u, c);
      }
      grad_w.at(e, 0) += dot;
    }
    ExpectOpMatchesNaive(
        {h0, w0}, g_nodes,
        [&](const std::vector<Variable>& p) {
          return GatherScatterWeighted(p[0], p[1], plan);
        },
        {weighted, {grad_h, grad_w}}, "GatherScatterWeighted");
  }
}

TEST(PlannedOpsTest, GradcheckPassesUnderParallelBackend) {
  ScopedBackendThreads scoped(8);
  Rng rng(46);
  const int nodes = 10;
  const int dim = 5;
  const int edges = 24;
  Variable h = Variable::Param(Tensor::RandomNormal(nodes, dim, &rng));
  Variable w = Variable::Param(Tensor::RandomNormal(edges, 1, &rng));
  const std::vector<int> src = RandomIndex(edges, nodes, 47);
  const std::vector<int> dst = RandomIndex(edges, nodes, 48);
  const auto plan =
      std::make_shared<const MessagePlan>(MessagePlan::Build(src, dst, nodes));
  GradCheckResult result = CheckGradients({h, w}, [&] {
    Variable weighted = GatherScatterWeighted(h, w, plan);
    Variable mean = SegmentMean(RowGather(h, BySrc(plan)), ByDst(plan));
    Variable extreme = SegmentMax(RowGather(h, ByDst(plan)), BySrc(plan));
    return Sum(Square(Add(Add(weighted, mean), extreme)));
  });
  EXPECT_LT(result.max_relative_error, 5e-2)
      << "worst leaf " << result.worst_leaf << " element "
      << result.worst_element;
}

// ---------------------------------------------------------------------------
// Batch plans: construction, pooled subgraphs, and conv-level identity.
// ---------------------------------------------------------------------------

GraphBatch RandomPlanBatch(uint64_t seed, bool include_degenerate) {
  Rng rng(seed);
  const int feature_dim = 6;
  std::vector<Graph> graphs;
  // A normal graph with random edges (possibly isolated nodes).
  Graph dense(5 + static_cast<int>(rng.UniformInt(0, 4)), feature_dim);
  const int num_edges = static_cast<int>(rng.UniformInt(4, 14));
  for (int e = 0; e < num_edges; ++e) {
    dense.AddEdge(
        static_cast<int>(rng.UniformInt(0, dense.num_nodes() - 1)),
        static_cast<int>(rng.UniformInt(0, dense.num_nodes() - 1)));
  }
  graphs.push_back(std::move(dense));
  if (include_degenerate) {
    graphs.emplace_back(4, feature_dim);  // Edgeless, all isolated.
    graphs.emplace_back(1, feature_dim);  // Single node.
  }
  std::vector<const Graph*> ptrs;
  for (Graph& g : graphs) {
    g.x = Tensor::RandomNormal(g.num_nodes(), feature_dim, &rng);
    g.label = 0;
    ptrs.push_back(&g);
  }
  return GraphBatch::FromGraphs(ptrs);
}

void ExpectPlansConsistent(const GraphBatch& batch) {
  const int num_edges = static_cast<int>(batch.edge_src().size());
  ASSERT_EQ(batch.edge_dst().size(), batch.edge_src().size());
  EXPECT_EQ(batch.plan()->num_rows, batch.num_nodes());
  // in_degree must agree with a direct recount.
  std::vector<int> expected(static_cast<size_t>(batch.num_nodes()), 0);
  for (int v : batch.edge_dst()) ++expected[static_cast<size_t>(v)];
  EXPECT_EQ(batch.in_degree(), expected);
  // Self-loop plan: original edges then one loop per node.
  ASSERT_EQ(batch.self_loop_plan()->num_edges(),
            num_edges + batch.num_nodes());
  for (int e = 0; e < num_edges; ++e) {
    EXPECT_EQ(batch.self_loop_plan()->src()[static_cast<size_t>(e)],
              batch.edge_src()[static_cast<size_t>(e)]);
    EXPECT_EQ(batch.self_loop_plan()->dst()[static_cast<size_t>(e)],
              batch.edge_dst()[static_cast<size_t>(e)]);
  }
  for (int v = 0; v < batch.num_nodes(); ++v) {
    const size_t i = static_cast<size_t>(num_edges + v);
    EXPECT_EQ(batch.self_loop_plan()->src()[i], v);
    EXPECT_EQ(batch.self_loop_plan()->dst()[i], v);
  }
  EXPECT_EQ(batch.node_plan()->num_segments, batch.num_graphs());
  EXPECT_EQ(batch.gcn_self_coeff().rows(), batch.num_nodes());
  EXPECT_EQ(batch.gcn_self_coeff().cols(), 1);
  EXPECT_EQ(batch.gcn_edge_coeff().rows(), num_edges);
  EXPECT_EQ(batch.gcn_edge_coeff().cols(), 1);
}

TEST(GraphBatchPlanTest, FromGraphsBuildsConsistentPlans) {
  for (uint64_t seed : {50u, 51u, 52u, 53u}) {
    ExpectPlansConsistent(RandomPlanBatch(seed, /*include_degenerate=*/true));
  }
}

TEST(GraphBatchPlanTest, InducedSubgraphsOwnTheirPlans) {
  for (uint64_t seed : {54u, 55u, 56u}) {
    const GraphBatch batch =
        RandomPlanBatch(seed, /*include_degenerate=*/true);
    Rng rng(seed + 100);
    std::vector<int> kept;
    for (int v = 0; v < batch.num_nodes(); ++v) {
      if (rng.UniformInt(0, 2) != 0) kept.push_back(v);
    }
    if (kept.empty()) kept.push_back(0);
    const GraphBatch sub = InduceSubgraph(batch, kept);
    ExpectPlansConsistent(sub);
    // The parent's plans are untouched and distinct objects.
    EXPECT_NE(sub.plan().get(), batch.plan().get());
    ExpectPlansConsistent(batch);
  }
}

TEST(PlannedConvTest, AllConvsBitwiseIdenticalAcrossThreads) {
  for (uint64_t seed : {60u, 61u}) {
    const GraphBatch batch = RandomPlanBatch(seed, true);
    const int dim = batch.features.cols();

    Rng ctor_rng(seed);
    GinConv gin(dim, 8, &ctor_rng);
    GcnConv gcn(dim, 8, &ctor_rng);
    SageConv sage(dim, 8, &ctor_rng);
    PnaConv pna(dim, 8, /*delta=*/1.f, &ctor_rng);
    GatConv gat(dim, 8, /*num_heads=*/2, &ctor_rng);
    FactorGcnConv factor(dim, 8, /*num_factors=*/2, &ctor_rng);

    const std::vector<
        std::pair<const char*, std::function<Variable(const Variable&)>>>
        convs = {
            {"gin",
             [&](const Variable& h) {
               return gin.Forward(h, batch, /*training=*/false);
             }},
            {"gcn", [&](const Variable& h) { return gcn.Forward(h, batch); }},
            {"sage",
             [&](const Variable& h) { return sage.Forward(h, batch); }},
            {"pna", [&](const Variable& h) { return pna.Forward(h, batch); }},
            {"gat", [&](const Variable& h) { return gat.Forward(h, batch); }},
            {"factor",
             [&](const Variable& h) { return factor.Forward(h, batch); }},
        };

    for (const auto& [name, forward] : convs) {
      auto run = [&](int threads) {
        ScopedBackendThreads scoped(threads);
        Variable h = Variable::Param(batch.features);
        Variable out = forward(h);
        Sum(Square(out)).Backward();
        return std::make_pair(out.value(), h.grad());
      };
      const auto [value_ref, grad_ref] = run(1);
      for (int threads : kThreadCounts) {
        const auto [value, grad] = run(threads);
        EXPECT_TRUE(BitwiseEqual(value_ref, value))
            << name << " value diverged at " << threads << " threads (seed "
            << seed << ")";
        EXPECT_TRUE(BitwiseEqual(grad_ref, grad))
            << name << " grad diverged at " << threads << " threads (seed "
            << seed << ")";
      }
    }
  }
}

}  // namespace
}  // namespace oodgnn
