// Tests for the kernel/backend layer: every kernel is compared against
// a naive reference, and — the determinism contract — produces bitwise
// identical results under the serial backend and the parallel backend
// at 2 and 8 threads. A gradcheck run under ParallelBackend proves the
// backward pass is deterministic too.

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/gnn/encoder.h"
#include "src/gnn/factor_gcn.h"
#include "src/gnn/gat_conv.h"
#include "src/gnn/gcn_conv.h"
#include "src/gnn/gin_conv.h"
#include "src/gnn/pna_conv.h"
#include "src/gnn/pool_common.h"
#include "src/gnn/sage_conv.h"
#include "src/graph/batch.h"
#include "src/graph/graph.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/backend.h"
#include "src/tensor/gradcheck.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_plan.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

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
/// zeros to a.
struct MatMulCase {
  int m, k, n;
  int zero_pct = 0;
};

/// Each test's original small shape plus two model shapes, both past
/// the parallel cutoff: the encoder's Linear over post-ReLU input
/// (full 64-column tiles, a 4-row a·bᵀ remainder, three aᵀ·b row
/// blocks) and a wide one (vector and scalar column remainders).
std::vector<MatMulCase> MatMulCases(MatMulCase original) {
  return {original, {131, 64, 64, 35}, {70, 130, 150}};
}

TEST(KernelsTest, MatMulMatchesNaiveBitwiseAcrossThreads) {
  for (const MatMulCase& c : MatMulCases({37, 29, 43})) {
    SCOPED_TRACE(std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                 std::to_string(c.n));
    const Tensor a = SparseTensor(c.m, c.k, c.zero_pct, 1);
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
          Tensor out(a.rows(), b.cols());
          GetBackend().MatMulAcc(a, b, &out);
          return out;
        },
        reference);
  }
}

TEST(KernelsTest, MatMulTransAMatchesNaiveBitwiseAcrossThreads) {
  for (const MatMulCase& c : MatMulCases({31, 17, 23})) {
    SCOPED_TRACE(std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                 std::to_string(c.n));
    const Tensor a = SparseTensor(c.m, c.k, c.zero_pct, 3);
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
    const Tensor a = SparseTensor(c.m, c.k, c.zero_pct, 5);
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
  Tensor row = RandomTensor(1, 257, 24);
  for (int c = 0; c < row.cols(); ++c) row[c] += 3.f;  // No zero divisors.
  const Tensor col = RandomTensor(131, 1, 25);
  using Op = float (*)(float, float);
  const Op mul = [](float p, float q) { return p * q; };
  const Op div = [](float p, float q) { return p / q; };
  // Reference: out = op(a, broadcast v); with acc, out = g + op(a, v).
  const auto reference = [&](Op op, bool by_row, bool acc) {
    Tensor out = acc ? g : Tensor(a.rows(), a.cols());
    for (int r = 0; r < a.rows(); ++r) {
      for (int c = 0; c < a.cols(); ++c) {
        const float v = by_row ? row.at(0, c) : col.at(r, 0);
        out.at(r, c) += op(a.at(r, c), v);
      }
    }
    return out;
  };
  const auto fresh = [&] { return Tensor(a.rows(), a.cols()); };
  ExpectDeterministic(
      [&] {
        Tensor out = fresh();
        GetBackend().MulRowVec(a, row, &out);
        return out;
      },
      reference(mul, true, false), 0.f);
  ExpectDeterministic(
      [&] {
        Tensor out = g;
        GetBackend().MulRowVecAcc(a, row, &out);
        return out;
      },
      reference(mul, true, true), 0.f);
  ExpectDeterministic(
      [&] {
        Tensor out = fresh();
        GetBackend().DivRowVec(a, row, &out);
        return out;
      },
      reference(div, true, false), 0.f);
  ExpectDeterministic(
      [&] {
        Tensor out = g;
        GetBackend().DivRowVecAcc(a, row, &out);
        return out;
      },
      reference(div, true, true), 0.f);
  ExpectDeterministic(
      [&] {
        Tensor out = fresh();
        GetBackend().MulColVec(a, col, &out);
        return out;
      },
      reference(mul, false, false), 0.f);
  ExpectDeterministic(
      [&] {
        Tensor out = g;
        GetBackend().MulColVecAcc(a, col, &out);
        return out;
      },
      reference(mul, false, true), 0.f);
}

TEST(KernelsTest, ReductionsAndBroadcastsAcrossThreads) {
  const Tensor a = RandomTensor(29, 37, 9);
  Tensor colsum_ref(1, a.cols());
  Tensor rowsum_ref(a.rows(), 1);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      colsum_ref.at(0, c) += a.at(r, c);
      rowsum_ref.at(r, 0) += a.at(r, c);
    }
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
        Tensor out(a.rows(), 1);
        GetBackend().RowSumAcc(a, &out);
        return out;
      },
      rowsum_ref);
  ExpectDeterministic(
      [&] {
        Tensor out(a.rows(), a.cols());
        GetBackend().RowBroadcastAcc(colsum_ref, &out);
        GetBackend().ColBroadcastAcc(rowsum_ref, &out);
        GetBackend().AddTransposedAcc(a.Transposed(), &out);
        return out;
      },
      [&] {
        Tensor out(a.rows(), a.cols());
        for (int r = 0; r < a.rows(); ++r) {
          for (int c = 0; c < a.cols(); ++c) {
            out.at(r, c) =
                colsum_ref.at(0, c) + rowsum_ref.at(r, 0) + a.at(r, c);
          }
        }
        return out;
      }());
}

TEST(KernelsTest, WeightedReductionsAcrossThreads) {
  const Tensor x = RandomTensor(21, 33, 10);
  const Tensor y = RandomTensor(21, 33, 11);
  Tensor col_ref(1, x.cols());
  Tensor row_ref(x.rows(), 1);
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      col_ref.at(0, c) += x.at(r, c) * y.at(r, c);
      row_ref.at(r, 0) += x.at(r, c) * y.at(r, c);
    }
  }
  ExpectDeterministic(
      [&] {
        Tensor out(1, x.cols());
        GetBackend().HadamardColumnSumAcc(x, y, &out);
        return out;
      },
      col_ref);
  ExpectDeterministic(
      [&] {
        Tensor out(x.rows(), 1);
        GetBackend().HadamardRowSumAcc(x, y, &out);
        return out;
      },
      row_ref);
}

TEST(KernelsTest, SoftmaxRowsAcrossThreads) {
  const Tensor a = RandomTensor(33, 13, 12);
  const Tensor g = RandomTensor(33, 13, 13);
  Tensor y_serial(a.rows(), a.cols());
  {
    ScopedBackendThreads scoped(1);
    GetBackend().SoftmaxRows(a, &y_serial);
  }
  for (int r = 0; r < a.rows(); ++r) {
    float total = 0.f;
    for (int c = 0; c < a.cols(); ++c) total += y_serial.at(r, c);
    EXPECT_NEAR(total, 1.f, 1e-5f);
  }
  ExpectDeterministic(
      [&] {
        Tensor y(a.rows(), a.cols());
        GetBackend().SoftmaxRows(a, &y);
        Tensor out(a.rows(), a.cols());
        GetBackend().SoftmaxRowsBackwardAcc(y, g, &out);
        return out;
      },
      [&] {
        Tensor out(a.rows(), a.cols());
        for (int r = 0; r < a.rows(); ++r) {
          float dot = 0.f;
          for (int c = 0; c < a.cols(); ++c) {
            dot += g.at(r, c) * y_serial.at(r, c);
          }
          for (int c = 0; c < a.cols(); ++c) {
            out.at(r, c) = y_serial.at(r, c) * (g.at(r, c) - dot);
          }
        }
        return out;
      }());
}

TEST(KernelsTest, GatherScatterSegmentAcrossThreads) {
  Rng rng(14);
  const int nodes = 41;
  const int dim = 19;
  const Tensor h = RandomTensor(nodes, dim, 15);
  std::vector<int> index(97);
  for (int& v : index) {
    v = static_cast<int>(rng.UniformInt(0, nodes - 1));
  }
  // Gather.
  Tensor gather_ref(static_cast<int>(index.size()), dim);
  for (size_t i = 0; i < index.size(); ++i) {
    for (int c = 0; c < dim; ++c) {
      gather_ref.at(static_cast<int>(i), c) = h.at(index[i], c);
    }
  }
  ExpectDeterministic(
      [&] {
        Tensor out(static_cast<int>(index.size()), dim);
        GetBackend().GatherRows(h, index, &out);
        return out;
      },
      gather_ref);
  // Scatter-add (segment sum) and its adjoint.
  Tensor scatter_ref(nodes, dim);
  for (size_t i = 0; i < index.size(); ++i) {
    for (int c = 0; c < dim; ++c) {
      scatter_ref.at(index[i], c) += gather_ref.at(static_cast<int>(i), c);
    }
  }
  ExpectDeterministic(
      [&] {
        Tensor out(nodes, dim);
        GetBackend().ScatterAddRowsAcc(gather_ref, index, &out);
        return out;
      },
      scatter_ref);
  ExpectDeterministic(
      [&] {
        Tensor out(static_cast<int>(index.size()), dim);
        GetBackend().GatherRowsAcc(scatter_ref, index, &out);
        return out;
      },
      [&] {
        Tensor out(static_cast<int>(index.size()), dim);
        for (size_t i = 0; i < index.size(); ++i) {
          for (int c = 0; c < dim; ++c) {
            out.at(static_cast<int>(i), c) = scatter_ref.at(index[i], c);
          }
        }
        return out;
      }());
}

TEST(KernelsTest, SegmentExtremeAcrossThreads) {
  Rng rng(16);
  const int rows = 53;
  const int dim = 11;
  const int num_segments = 9;  // Segment 8 stays empty.
  const Tensor a = RandomTensor(rows, dim, 17);
  std::vector<int> segment(static_cast<size_t>(rows));
  for (int& s : segment) {
    s = static_cast<int>(rng.UniformInt(0, num_segments - 2));
  }
  for (bool is_max : {true, false}) {
    Tensor ref(num_segments, dim);
    std::vector<int> arg_ref(static_cast<size_t>(num_segments) * dim, -1);
    for (int r = 0; r < rows; ++r) {
      const int s = segment[static_cast<size_t>(r)];
      for (int c = 0; c < dim; ++c) {
        const size_t cell = static_cast<size_t>(s) * dim + c;
        const bool better =
            arg_ref[cell] < 0 ||
            (is_max ? a.at(r, c) > ref.at(s, c) : a.at(r, c) < ref.at(s, c));
        if (better) {
          ref.at(s, c) = a.at(r, c);
          arg_ref[cell] = r;
        }
      }
    }
    ExpectDeterministic(
        [&] {
          Tensor out(num_segments, dim);
          std::vector<int> arg(static_cast<size_t>(num_segments) * dim, -1);
          GetBackend().SegmentExtreme(a, segment, is_max, &out, &arg);
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
/// → softmax → weighted sum. Exercises every hot backward kernel.
Variable CompositeLoss(const Variable& h, const Variable& w,
                       const std::vector<int>& src,
                       const std::vector<int>& dst, int nodes) {
  Variable messages = RowGather(h, src);
  Variable mixed = Relu(MatMul(messages, w));
  Variable aggregated = ScatterAddRows(mixed, dst, nodes);
  Variable scores = SoftmaxRows(aggregated);
  return Sum(Square(scores));
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
  GradCheckResult result = CheckGradients(
      {h, w}, [&] { return CompositeLoss(h, w, src, dst, nodes); });
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
  auto run = [&](int threads) {
    ScopedBackendThreads scoped(threads);
    Variable h = Variable::Param(h0);
    Variable w = Variable::Param(w0);
    Variable loss = CompositeLoss(h, w, src, dst, nodes);
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

// ---------------------------------------------------------------------------
// CSR segment plans.
// ---------------------------------------------------------------------------

std::vector<int> RandomIndex(size_t count, int num_segments, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> index(count);
  for (int& v : index) {
    v = static_cast<int>(rng.UniformInt(0, num_segments - 1));
  }
  return index;
}

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
  // Naive ascending-row reference — the order the seed full-scan
  // kernel and the planned kernel both commit to per output row.
  Tensor reference(nodes, dim);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < dim; ++c) {
      reference.at(index[static_cast<size_t>(r)], c) += a.at(r, c);
    }
  }
  ExpectDeterministic(
      [&] {
        Tensor out(nodes, dim);
        GetBackend().ScatterAddRowsPlanned(a, plan, &out);
        return out;
      },
      reference);
  // And the planned kernel agrees bitwise with the unplanned one.
  Tensor unplanned(nodes, dim);
  Tensor planned(nodes, dim);
  ScopedBackendThreads scoped(8);
  GetBackend().ScatterAddRowsAcc(a, index, &unplanned);
  GetBackend().ScatterAddRowsPlanned(a, plan, &planned);
  EXPECT_TRUE(BitwiseEqual(unplanned, planned));
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
  std::vector<int> segment = RandomIndex(83, num_segments - 1, 40);
  const SegmentPlan plan = SegmentPlan::Build(segment, num_segments);
  for (bool is_max : {true, false}) {
    Tensor ref(num_segments, dim);
    std::vector<int> arg_ref(static_cast<size_t>(num_segments) * dim, -1);
    {
      ScopedBackendThreads scoped(1);
      GetBackend().SegmentExtreme(a, segment, is_max, &ref, &arg_ref);
    }
    ExpectDeterministic(
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
// Planned autograd overloads: values and gradients bitwise identical to
// the unplanned ops at every thread count.
// ---------------------------------------------------------------------------

struct ForwardBackward {
  Tensor value;
  std::vector<Tensor> grads;
};

/// Runs `build` on freshly re-created Params, sums the squared output,
/// and returns the output value plus every leaf gradient.
ForwardBackward RunTaped(
    const std::vector<Tensor>& leaves,
    const std::function<Variable(const std::vector<Variable>&)>& build) {
  std::vector<Variable> params;
  params.reserve(leaves.size());
  for (const Tensor& t : leaves) params.push_back(Variable::Param(t));
  Variable out = build(params);
  Sum(Square(out)).Backward();
  ForwardBackward result;
  result.value = out.value();
  for (const Variable& p : params) result.grads.push_back(p.grad());
  return result;
}

void ExpectPlannedMatchesUnplanned(
    const std::vector<Tensor>& leaves,
    const std::function<Variable(const std::vector<Variable>&)>& unplanned,
    const std::function<Variable(const std::vector<Variable>&)>& planned,
    const char* what) {
  ForwardBackward baseline;
  {
    ScopedBackendThreads scoped(1);
    baseline = RunTaped(leaves, unplanned);
  }
  for (int threads : kThreadCounts) {
    ScopedBackendThreads scoped(threads);
    const ForwardBackward got = RunTaped(leaves, planned);
    EXPECT_TRUE(BitwiseEqual(baseline.value, got.value))
        << what << " value diverged at " << threads << " threads";
    for (size_t i = 0; i < leaves.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(baseline.grads[i], got.grads[i]))
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

  ExpectPlannedMatchesUnplanned(
      {h0},
      [&](const std::vector<Variable>& p) { return RowGather(p[0], src); },
      [&](const std::vector<Variable>& p) { return RowGather(p[0], by_src); },
      "RowGather");
  ExpectPlannedMatchesUnplanned(
      {e0},
      [&](const std::vector<Variable>& p) {
        return ScatterAddRows(p[0], dst, nodes);
      },
      [&](const std::vector<Variable>& p) {
        return ScatterAddRows(p[0], by_dst);
      },
      "ScatterAddRows");
  ExpectPlannedMatchesUnplanned(
      {e0},
      [&](const std::vector<Variable>& p) {
        return SegmentMean(p[0], dst, nodes);
      },
      [&](const std::vector<Variable>& p) {
        return SegmentMean(p[0], by_dst);
      },
      "SegmentMean");
  ExpectPlannedMatchesUnplanned(
      {e0},
      [&](const std::vector<Variable>& p) {
        return SegmentMax(p[0], dst, nodes);
      },
      [&](const std::vector<Variable>& p) { return SegmentMax(p[0], by_dst); },
      "SegmentMax");
  ExpectPlannedMatchesUnplanned(
      {e0},
      [&](const std::vector<Variable>& p) {
        return SegmentMin(p[0], dst, nodes);
      },
      [&](const std::vector<Variable>& p) { return SegmentMin(p[0], by_dst); },
      "SegmentMin");
  ExpectPlannedMatchesUnplanned(
      {h0},
      [&](const std::vector<Variable>& p) {
        return ScatterAddRows(RowGather(p[0], src), dst, nodes);
      },
      [&](const std::vector<Variable>& p) {
        return GatherScatter(p[0], plan);
      },
      "GatherScatter");
  ExpectPlannedMatchesUnplanned(
      {h0, w0},
      [&](const std::vector<Variable>& p) {
        return ScatterAddRows(MulColVec(RowGather(p[0], src), p[1]), dst,
                              nodes);
      },
      [&](const std::vector<Variable>& p) {
        return GatherScatterWeighted(p[0], p[1], plan);
      },
      "GatherScatterWeighted");
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
  ASSERT_TRUE(batch.has_plans());
  // in_degree must agree with a direct recount.
  std::vector<int> expected(static_cast<size_t>(batch.num_nodes), 0);
  for (int v : batch.edge_dst) ++expected[static_cast<size_t>(v)];
  EXPECT_EQ(batch.in_degree, expected);
  // The plans index the batch's own edge vectors.
  EXPECT_EQ(batch.plan->src(), batch.edge_src);
  EXPECT_EQ(batch.plan->dst(), batch.edge_dst);
  // Self-loop plan: original edges then one loop per node.
  ASSERT_EQ(batch.self_loop_plan->num_edges(),
            static_cast<int>(batch.edge_src.size()) + batch.num_nodes);
  for (int v = 0; v < batch.num_nodes; ++v) {
    const size_t i = batch.edge_src.size() + static_cast<size_t>(v);
    EXPECT_EQ(batch.self_loop_plan->src()[i], v);
    EXPECT_EQ(batch.self_loop_plan->dst()[i], v);
  }
  EXPECT_EQ(batch.node_plan->items, batch.node_graph);
  EXPECT_EQ(batch.gcn_self_coeff.rows(), batch.num_nodes);
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
    for (int v = 0; v < batch.num_nodes; ++v) {
      if (rng.UniformInt(0, 2) != 0) kept.push_back(v);
    }
    if (kept.empty()) kept.push_back(0);
    const GraphBatch sub = InduceSubgraph(batch, kept);
    ExpectPlansConsistent(sub);
    // The parent's plans are untouched and distinct objects.
    EXPECT_NE(sub.plan.get(), batch.plan.get());
    ExpectPlansConsistent(batch);
  }
}

/// Strips the cached plans so conv layers take the unplanned fallback.
GraphBatch WithoutPlans(const GraphBatch& batch) {
  GraphBatch stripped = batch;
  stripped.plan.reset();
  stripped.self_loop_plan.reset();
  stripped.node_plan.reset();
  return stripped;
}

TEST(PlannedConvTest, AllConvsBitwiseIdenticalWithAndWithoutPlans) {
  for (uint64_t seed : {60u, 61u}) {
    const GraphBatch planned = RandomPlanBatch(seed, true);
    const GraphBatch stripped = WithoutPlans(planned);
    ASSERT_FALSE(stripped.has_plans());
    const int dim = planned.features.cols();

    Rng ctor_rng(seed);
    GinConv gin(dim, 8, &ctor_rng);
    GcnConv gcn(dim, 8, &ctor_rng);
    SageConv sage(dim, 8, &ctor_rng);
    PnaConv pna(dim, 8, /*delta=*/1.f, &ctor_rng);
    GatConv gat(dim, 8, /*num_heads=*/2, &ctor_rng);
    FactorGcnConv factor(dim, 8, /*num_factors=*/2, &ctor_rng);

    const std::vector<std::pair<
        const char*, std::function<Variable(const Variable&,
                                            const GraphBatch&)>>>
        convs = {
            {"gin",
             [&](const Variable& h, const GraphBatch& b) {
               return gin.Forward(h, b, /*training=*/false);
             }},
            {"gcn",
             [&](const Variable& h, const GraphBatch& b) {
               return gcn.Forward(h, b);
             }},
            {"sage",
             [&](const Variable& h, const GraphBatch& b) {
               return sage.Forward(h, b);
             }},
            {"pna",
             [&](const Variable& h, const GraphBatch& b) {
               return pna.Forward(h, b);
             }},
            {"gat",
             [&](const Variable& h, const GraphBatch& b) {
               return gat.Forward(h, b);
             }},
            {"factor",
             [&](const Variable& h, const GraphBatch& b) {
               return factor.Forward(h, b);
             }},
        };

    for (const auto& entry : convs) {
      const char* name = entry.first;
      const auto& forward = entry.second;
      auto run = [&](const GraphBatch& b, int threads) {
        ScopedBackendThreads scoped(threads);
        Variable h = Variable::Param(planned.features);
        Variable out = forward(h, b);
        Sum(Square(out)).Backward();
        return std::make_pair(out.value(), h.grad());
      };
      const auto [value_ref, grad_ref] = run(stripped, 1);
      for (int threads : kThreadCounts) {
        const auto [value, grad] = run(planned, threads);
        EXPECT_TRUE(BitwiseEqual(value_ref, value))
            << name << " planned value diverged at " << threads
            << " threads (seed " << seed << ")";
        EXPECT_TRUE(BitwiseEqual(grad_ref, grad))
            << name << " planned grad diverged at " << threads
            << " threads (seed " << seed << ")";
      }
    }
  }
}

TEST(PlannedConvTest, EncoderForwardBackwardSkipsUnplannedScatter) {
  const bool was_profiling = obs::ProfilingEnabled();
  obs::SetProfilingEnabled(true);
  obs::MetricsRegistry::Global().Reset();

  const GraphBatch batch = RandomPlanBatch(62, /*include_degenerate=*/true);
  Rng rng(63);
  EncoderConfig config;
  config.feature_dim = batch.features.cols();
  config.hidden_dim = 8;
  config.num_layers = 2;
  config.dropout = 0.f;
  config.virtual_node = true;
  {
    MessagePassingEncoder encoder(ConvKind::kGin, config, &rng);
    Sum(encoder.Encode(batch, /*training=*/false, &rng)).Backward();
  }
  {
    HierarchicalPoolEncoder encoder(PoolKind::kTopK, config, &rng);
    Sum(encoder.Encode(batch, /*training=*/false, &rng)).Backward();
  }

  std::int64_t unplanned_calls = -1;
  std::int64_t planned_calls = 0;
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().GetSnapshot().counters) {
    if (name == "kernel/scatter_add_rows/calls") unplanned_calls = value;
    if (name == "kernel/scatter_planned/calls" ||
        name == "kernel/gather_scatter/calls" ||
        name == "kernel/gather_scatter_weighted/calls") {
      planned_calls += value;
    }
  }
  obs::SetProfilingEnabled(was_profiling);
  // The counter exists (registered with its op family) but never fired.
  EXPECT_EQ(unplanned_calls, 0)
      << "encoder still dispatches the unplanned full-scan scatter";
  EXPECT_GT(planned_calls, 0);
}

}  // namespace
}  // namespace oodgnn
